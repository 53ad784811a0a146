package worldview

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

// testUniverse is three disjoint /24s followed by any extra prefixes.
func testUniverse(t *testing.T, extra ...simnet.Prefix) *simnet.Universe {
	t.Helper()
	var prefixes []simnet.Prefix
	for _, base := range []string{"192.0.2.0", "198.51.100.0", "203.0.113.0"} {
		p, err := simnet.NewPrefix(base, 24)
		if err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, p)
	}
	return simnet.NewUniverse(append(prefixes, extra...)...)
}

// echoHandler answers one byte so dials are observable.
var echoHandler = simnet.HandlerFunc(func(conn net.Conn) {
	defer conn.Close()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		_, _ = conn.Write(buf)
	}
})

// buildPair registers the same population on a mutable Network and a
// Snapshot over testUniverse(t, extra...) so tests can require
// identical behaviour.
func buildPair(t *testing.T, extra ...simnet.Prefix) (*simnet.Network, *Snapshot) {
	t.Helper()
	u := testUniverse(t, extra...)
	nw := simnet.New(u)
	nw.SetNoise(0.25)

	b, err := NewBuilder(Config{Universe: u, Noise: nw.NoiseModel()})
	if err != nil {
		t.Fatal(err)
	}
	add := func(ip string, port, asn int) {
		a := netip.MustParseAddr(ip)
		nw.Register(a, port, asn, echoHandler)
		b.AddHost(a, port, asn, echoHandler)
	}
	add("192.0.2.10", 4840, 65010)
	add("198.51.100.20", 4841, 65020)
	add("203.0.113.30", 4840, 65030)
	add("10.9.9.9", 4840, 65099) // outside the universe (hidden host)
	excl := netip.MustParseAddr("192.0.2.66")
	nw.Register(excl, 4840, 65066, echoHandler)
	b.AddHost(excl, 4840, 65066, echoHandler)
	nw.Exclude(excl)
	b.Exclude(excl)
	return nw, b.Build()
}

// TestSnapshotMatchesNetworkOpenPort sweeps the full universe plus the
// out-of-universe host and requires OpenPort parity with the mutable
// network, including the deterministic noise model, and requires both
// views' ProbeAt at every index to equal OpenPort of the address
// AddrAt returns there.
// The overlapping universe adds 192.0.2.0/25 after the /24 holding it,
// so its addresses (a host and the excluded IP among them) belong to
// the /24's shard by first match.
func TestSnapshotMatchesNetworkOpenPort(t *testing.T) {
	overlap, err := simnet.NewPrefix("192.0.2.0", 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]simnet.Prefix{nil, {overlap}} {
		nw, snap := buildPair(t, extra...)
		u := nw.Universe()
		views := []struct {
			name string
			v    simnet.View
		}{{"snapshot", snap}, {"network", nw}}
		noise := 0
		for i := uint64(0); i < u.Size(); i++ {
			addr, err := u.AddrAt(i)
			if err != nil {
				t.Fatal(err)
			}
			for _, port := range []int{4840, 4841} {
				got, want := snap.OpenPort(addr, port), nw.OpenPort(addr, port)
				if got != want {
					t.Fatalf("OpenPort(%s, %d) = %v, network says %v", addr, port, got, want)
				}
				if got && port == 4840 {
					noise++
				}
				for _, view := range views {
					if open := view.v.ProbeAt(i, port); open != want {
						t.Fatalf("%s ProbeAt(%d, %d) = %v; want %v (%s)", view.name, i, port, open, want, addr)
					}
				}
			}
		}
		if noise < 30 {
			t.Errorf("open 4840 ports = %d, noise model not applied", noise)
		}
		for _, view := range views {
			if view.v.ProbeAt(u.Size(), 4840) {
				t.Errorf("%s ProbeAt past the universe is open", view.name)
			}
		}
		out := netip.MustParseAddr("10.9.9.9")
		if !snap.OpenPort(out, 4840) || snap.OpenPort(out, 4841) {
			t.Error("out-of-universe host mishandled")
		}
		if snap.OpenPort(netip.MustParseAddr("192.0.2.66"), 4840) {
			t.Error("excluded IP reported open")
		}
	}
}

func TestSnapshotASOf(t *testing.T) {
	nw, snap := buildPair(t)
	for _, ip := range []string{"192.0.2.10", "198.51.100.20", "10.9.9.9", "192.0.2.200", "8.8.8.8"} {
		a := netip.MustParseAddr(ip)
		if got, want := snap.ASOf(a), nw.ASOf(a); got != want {
			t.Errorf("ASOf(%s) = %d, network says %d", ip, got, want)
		}
	}
}

func TestSnapshotDialContext(t *testing.T) {
	_, snap := buildPair(t)
	ctx := context.Background()

	dial := func(addr string) (net.Conn, error) {
		t.Helper()
		return snap.DialContext(ctx, "tcp", addr)
	}
	// Registered host answers.
	conn, err := dial("198.51.100.20:4841")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0x7}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil || buf[0] != 0x7 {
		t.Fatalf("echo = %v %v", buf, err)
	}
	conn.Close()

	// Closed port refuses.
	if _, err := dial("192.0.2.50:4841"); err == nil {
		t.Error("closed port did not refuse")
	} else if _, ok := err.(simnet.ErrRefused); !ok {
		t.Errorf("closed port error = %T", err)
	}
	// Excluded IP refuses even though a host is registered.
	if _, err := dial("192.0.2.66:4840"); err == nil {
		t.Error("excluded IP did not refuse")
	}
	// Unsupported network.
	if _, err := snap.DialContext(ctx, "udp", "192.0.2.10:4840"); err == nil {
		t.Error("udp dial accepted")
	}
}

func TestSnapshotNoiseServesHTTP(t *testing.T) {
	u := testUniverse(t)
	b, err := NewBuilder(Config{Universe: u, Noise: simnet.Noise{Prob: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	snap := b.Build()
	conn, err := snap.DialContext(context.Background(), "tcp", "192.0.2.77:4840")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("HEL")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("noise read = %d, %v", n, err)
	}
	if string(buf[:4]) != "HTTP" {
		t.Errorf("noise response = %q", buf[:n])
	}
}

func TestSnapshotLatency(t *testing.T) {
	u := testUniverse(t)
	b, err := NewBuilder(Config{Universe: u, Latency: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ip := netip.MustParseAddr("192.0.2.10")
	b.AddHost(ip, 4840, 65010, echoHandler)
	snap := b.Build()

	start := time.Now()
	conn, err := snap.DialContext(context.Background(), "tcp", "192.0.2.10:4840")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("dial took %v, latency not applied", elapsed)
	}
	// A cancelled context aborts the latency wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := snap.DialContext(ctx, "tcp", "192.0.2.10:4840"); err == nil {
		t.Error("cancelled dial succeeded")
	}
}

// TestSnapshotSharding pins the shard layout: one shard per universe
// prefix plus the catch-all, and hosts of different prefixes are
// reachable (i.e. land in a shard at all).
func TestSnapshotSharding(t *testing.T) {
	_, snap := buildPair(t)
	if snap.NumShards() != 4 {
		t.Fatalf("shards = %d, want 3 prefixes + 1 catch-all", snap.NumShards())
	}
	if snap.NumHosts() != 5 {
		t.Errorf("hosts = %d, want 5", snap.NumHosts())
	}
	for _, addr := range []string{"192.0.2.10:4840", "198.51.100.20:4841", "203.0.113.30:4840", "10.9.9.9:4840"} {
		conn, err := snap.DialContext(context.Background(), "tcp", addr)
		if err != nil {
			t.Errorf("dial %s: %v", addr, err)
			continue
		}
		conn.Close()
	}
}

// TestSnapshotConcurrentReaders hammers one snapshot from many
// goroutines; under -race this proves reads are lock-free safe.
func TestSnapshotConcurrentReaders(t *testing.T) {
	_, snap := buildPair(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				snap.OpenPort(netip.MustParseAddr("192.0.2.10"), 4840)
				snap.ASOf(netip.MustParseAddr("203.0.113.30"))
				conn, err := snap.DialContext(context.Background(), "tcp", "192.0.2.10:4840")
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				conn.Close()
			}
		}()
	}
	wg.Wait()
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(Config{}); err == nil {
		t.Error("nil universe accepted")
	}
	u, z := testUniverse(t), simnet.Noise{Prob: 0.25}
	layer := NewNoiseLayer(u, z)
	if _, err := NewBuilder(Config{Universe: u, Noise: z, NoiseLayer: layer}); err != nil {
		t.Errorf("matching noise layer rejected: %v", err)
	}
	if _, err := NewBuilder(Config{Universe: u, Noise: simnet.Noise{Prob: 0.5}, NoiseLayer: layer}); err == nil {
		t.Error("noise layer of another noise model accepted")
	}
	if _, err := NewBuilder(Config{Universe: testUniverse(t), Noise: z, NoiseLayer: layer}); err == nil {
		t.Error("noise layer of another universe accepted")
	}
	b, err := NewBuilder(Config{Universe: testUniverse(t)})
	if err != nil {
		t.Fatal(err)
	}
	b.Build()
	defer func() {
		if recover() == nil {
			t.Error("second Build did not panic")
		}
	}()
	b.Build()
}

// TestSnapshotProbeAtAllocFree pins the probe path allocation-free on
// both branches: clear candidate bits and the exact check behind set
// ones.
func TestSnapshotProbeAtAllocFree(t *testing.T) {
	_, snap := buildPair(t)
	n := snap.Universe().Size()
	i := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = snap.ProbeAt(i%n, 4840)
		i++
	}); allocs != 0 {
		t.Errorf("Snapshot.ProbeAt allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkSnapshotBuild measures what snapshot construction costs on
// the campaign universe (40 /16s, 2,621,440 addresses) at noise 0.002:
// the world's one-off noise layer, and a wave's build of 300 hosts,
// which clones it.
func BenchmarkSnapshotBuild(b *testing.B) {
	var prefixes []simnet.Prefix
	for i := 0; i < 40; i++ {
		p, err := simnet.NewPrefix(netip.AddrFrom4([4]byte{100, byte(64 + i), 0, 0}).String(), 16)
		if err != nil {
			b.Fatal(err)
		}
		prefixes = append(prefixes, p)
	}
	u := simnet.NewUniverse(prefixes...)
	z := simnet.Noise{Prob: 0.002, Seed: 1}
	b.Run("noise-layer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			layerSink = NewNoiseLayer(u, z)
		}
	})
	b.Run("wave", func(b *testing.B) {
		layer := NewNoiseLayer(u, z)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			builder, err := NewBuilder(Config{Universe: u, Noise: z, NoiseLayer: layer})
			if err != nil {
				b.Fatal(err)
			}
			for h := uint64(0); h < 300; h++ {
				a, err := u.AddrAt(h * 8737)
				if err != nil {
					b.Fatal(err)
				}
				builder.AddHost(a, 4840, 65000, echoHandler)
			}
			snapSink = builder.Build()
		}
	})
}

// Benchmark sinks keep the measured calls from being optimised away.
var (
	layerSink *NoiseLayer
	snapSink  *Snapshot
)
