// Package worldview provides immutable, shareable snapshots of the
// simulated Internet at one measurement wave.
//
// The legacy execution model serializes every wave on the single
// mutable simnet.Network: deploy.World.ApplyWave re-registers the
// wave's population in place, so wave w+1 cannot scan until wave w is
// done with the shared host table. A Snapshot inverts that ownership:
// it is constructed once per wave from the world spec, never mutated
// afterwards, and satisfies the same read-only simnet.View interface
// the scanner consumes — so a campaign can materialize the views for
// all N waves up front and run every wave's scan concurrently (see
// DESIGN.md).
//
// Host lookup is sharded by universe address prefix: each /16 of the
// scannable space owns an independent shard (plus one shard for hosts
// outside the universe, e.g. hidden servers reached only through
// references). Shards are immutable after Build, so concurrent
// scanners read them without any locking and scanners working
// disjoint prefixes touch disjoint memory.
//
// Every snapshot also carries an immutable candidate bitset over the
// universe's linear indexes: bit i is set when the address at i has a
// registered host on any port or is a noise hit. A port-scan probe of a
// clear bit is closed without resolving the address; only set bits run
// the exact check against the shard.
//
// Snapshots for different waves share the world's underlying server
// instances, which is what makes the campaign-scoped crypto-reuse layer
// (PR 4) work across waves: deploy.World.SetCrypto installs the
// memoized RSA engine on those shared servers once, and every snapshot
// — past and future — serves handshakes through it. The snapshot
// itself holds no crypto state (DESIGN.md §4).
//
// Snapshots are also the unit the sharded campaign runtime (PR 5)
// distributes over: scanner.RunWaveShard scans one slice of the
// permuted probe space against a snapshot, any number of shards
// concurrently against the same snapshot in-process — or against
// independently materialized but byte-identical snapshots in worker
// processes, since deploy.Materialize is a pure function of the spec
// (DESIGN.md §5).
package worldview

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/simnet"
)

// Config fixes the snapshot's universe and dial behaviour. Noise and
// latency are copied from the network the snapshot stands in for, so a
// wave scanned through a snapshot observes the exact same Internet as
// one scanned through the mutable Network.
type Config struct {
	// Universe is the scannable address space (required).
	Universe *simnet.Universe
	// Noise is the deterministic open-port-but-not-OPC-UA model.
	Noise simnet.Noise
	// Latency delays every dial.
	Latency time.Duration
	// Chaos is the wave-bound adversarial-host model (DESIGN.md §9),
	// already bound to this snapshot's wave; the zero value leaves
	// every registered host polite. Like Noise it is pure function
	// state, so snapshots stay immutable and shard-equivalent.
	Chaos chaos.WaveModel
	// NoiseLayer optionally supplies NewNoiseLayer(Universe, Noise),
	// which depends on neither the wave nor the population, so a world
	// computes it once and every snapshot clones it. Nil makes
	// NewBuilder compute it.
	NoiseLayer *NoiseLayer
}

// bitset holds one bit per universe linear index.
type bitset []uint64

func newBitset(n uint64) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i uint64) { b[i/64] |= 1 << (i % 64) }

// has reports whether bit i is set; it is false past the end.
func (b bitset) has(i uint64) bool {
	return i/64 < uint64(len(b)) && b[i/64]&(1<<(i%64)) != 0
}

// NoiseLayer marks the universe's linear indexes whose address is a
// noise hit (simnet.Noise.HitInUniverse on port 4840). It is immutable
// and shared by the snapshots built from it.
type NoiseLayer struct {
	universe *simnet.Universe
	noise    simnet.Noise
	bits     bitset
}

// NewNoiseLayer walks every universe prefix in order and hashes each
// address once.
func NewNoiseLayer(u *simnet.Universe, z simnet.Noise) *NoiseLayer {
	l := &NoiseLayer{universe: u, noise: z, bits: newBitset(u.Size())}
	if z.Prob <= 0 {
		return l
	}
	for k := 0; k < u.NumPrefixes(); k++ {
		p, start := u.Prefix(k)
		for j := uint32(0); j < p.Size; j++ {
			if z.HitInUniverse(p.AddrAt(j), 4840) {
				l.bits.set(start + uint64(j))
			}
		}
	}
	return l
}

// Matches reports whether the layer was computed for this universe and
// noise model.
func (l *NoiseLayer) Matches(u *simnet.Universe, z simnet.Noise) bool {
	return l.universe == u && l.noise == z
}

// Hit reports whether the address at linear index i is a noise hit.
func (l *NoiseLayer) Hit(i uint64) bool { return l.bits.has(i) }

// host is one registered endpoint of the snapshot.
type host struct {
	asn     int
	handler simnet.ConnHandler
}

// shard is one prefix's slice of the host table. Immutable after
// Build; maps are safe for unlimited concurrent readers.
type shard struct {
	hosts    map[netip.AddrPort]host
	asOfIP   map[netip.Addr]int
	excluded map[netip.Addr]bool
}

// Builder accumulates one wave's population and seals it into a
// Snapshot. Builders are not safe for concurrent use; construction is
// cheap (map inserts and a copy of the noise layer — servers are built
// and cached by the world).
type Builder struct {
	cfg        Config
	shards     []shard
	candidates bitset
	hosts      int
	built      bool
}

// NewBuilder starts a snapshot with one shard per universe prefix plus
// a catch-all shard for out-of-universe hosts, and a candidate bitset
// holding the noise layer.
func NewBuilder(cfg Config) (*Builder, error) {
	if cfg.Universe == nil {
		return nil, fmt.Errorf("worldview: nil universe")
	}
	noise := cfg.NoiseLayer
	if noise == nil {
		noise = NewNoiseLayer(cfg.Universe, cfg.Noise)
	} else if !noise.Matches(cfg.Universe, cfg.Noise) {
		return nil, fmt.Errorf("worldview: noise layer computed for another universe or noise model")
	}
	shards := make([]shard, cfg.Universe.NumPrefixes()+1)
	for i := range shards {
		shards[i] = shard{
			hosts:    make(map[netip.AddrPort]host),
			asOfIP:   make(map[netip.Addr]int),
			excluded: make(map[netip.Addr]bool),
		}
	}
	return &Builder{cfg: cfg, shards: shards, candidates: slices.Clone(noise.bits)}, nil
}

// shardFor maps an address to its prefix's shard; out-of-universe
// addresses land in the final catch-all shard.
func (b *Builder) shardFor(ip netip.Addr) *shard {
	i := b.cfg.Universe.PrefixIndex(ip)
	if i < 0 {
		i = len(b.shards) - 1
	}
	return &b.shards[i]
}

// AddHost registers one endpoint. Adding the same ip:port twice
// replaces the previous handler, mirroring Network.Register. The
// address's candidate bit is set at every linear index it has, one per
// containing prefix when prefixes overlap.
func (b *Builder) AddHost(ip netip.Addr, port, asn int, h simnet.ConnHandler) {
	s := b.shardFor(ip)
	key := netip.AddrPortFrom(ip, uint16(port))
	if _, ok := s.hosts[key]; !ok {
		b.hosts++
	}
	s.hosts[key] = host{asn: asn, handler: h}
	s.asOfIP[ip] = asn
	u := b.cfg.Universe
	for k := 0; k < u.NumPrefixes(); k++ {
		p, start := u.Prefix(k)
		if off, ok := p.IndexOf(ip); ok {
			b.candidates.set(start + uint64(off))
		}
	}
}

// Exclude marks an IP as opted out (Appendix A.2): connects are
// refused even if a host is registered there.
func (b *Builder) Exclude(ip netip.Addr) {
	b.shardFor(ip).excluded[ip] = true
}

// Build seals the population into an immutable Snapshot. The builder
// must not be used afterwards.
func (b *Builder) Build() *Snapshot {
	if b.built {
		panic("worldview: Build called twice")
	}
	b.built = true
	return &Snapshot{cfg: b.cfg, shards: b.shards, candidates: b.candidates, hosts: b.hosts}
}

// Snapshot is the immutable world at one wave. It satisfies
// simnet.View (and therefore uaclient.Dialer), so the scanner runs
// against it exactly as it runs against the mutable Network — but any
// number of snapshots can be scanned concurrently because nothing is
// ever written after Build.
type Snapshot struct {
	cfg        Config
	shards     []shard
	candidates bitset
	hosts      int
}

// Compile-time check: snapshots satisfy the scanner's view interface.
var _ simnet.View = (*Snapshot)(nil)

// Universe returns the scannable address space.
func (s *Snapshot) Universe() *simnet.Universe { return s.cfg.Universe }

// NumHosts returns the number of registered endpoints.
func (s *Snapshot) NumHosts() int { return s.hosts }

// NumShards returns the shard count (universe prefixes + 1).
func (s *Snapshot) NumShards() int { return len(s.shards) }

// shardFor resolves an address's shard with a single prefix search; the
// second result reports whether the address is inside the universe
// (needed by the noise model, which only applies there).
func (s *Snapshot) shardFor(ip netip.Addr) (*shard, bool) {
	return s.shardAt(s.cfg.Universe.PrefixIndex(ip))
}

// shardAt maps a prefix index (-1 outside the universe) to its shard.
func (s *Snapshot) shardAt(prefix int) (*shard, bool) {
	if prefix < 0 {
		return &s.shards[len(s.shards)-1], false
	}
	return &s.shards[prefix], true
}

// OpenPort reports whether a TCP connect to the address would succeed,
// without spawning handlers; the result matches DialContext exactly.
// Tests use it as the oracle for ProbeAt.
func (s *Snapshot) OpenPort(ip netip.Addr, port int) bool {
	return s.open(ip, port, s.cfg.Universe.PrefixIndex(ip))
}

// ProbeAt implements simnet.View. A clear candidate bit means no host
// on any port and no noise hit, so the probe is closed with one bit
// test. A set bit runs the exact check: Universe.Locate returns the
// prefix PrefixIndex would, so it indexes the shard directly.
//
//studyvet:hotpath — called once per probed address
func (s *Snapshot) ProbeAt(i uint64, port int) bool {
	if !s.candidates.has(i) {
		return false
	}
	ip, prefix := s.cfg.Universe.Locate(i)
	return prefix >= 0 && s.open(ip, port, prefix)
}

// open is the check OpenPort and ProbeAt share, given the address's
// prefix index.
func (s *Snapshot) open(ip netip.Addr, port, prefix int) bool {
	sh, inUniverse := s.shardAt(prefix)
	// Exclusion lists are tiny (usually empty); skip the map hash on
	// the per-probe path when the shard has none.
	if len(sh.excluded) > 0 && sh.excluded[ip] {
		return false
	}
	if _, ok := sh.hosts[netip.AddrPortFrom(ip, uint16(port))]; ok {
		return true
	}
	return inUniverse && s.cfg.Noise.HitInUniverse(ip, port)
}

// ASOf returns the autonomous system of an address; addresses without
// a registered host get the same deterministic fallback as the
// mutable Network.
func (s *Snapshot) ASOf(ip netip.Addr) int {
	sh, _ := s.shardFor(ip)
	if asn, ok := sh.asOfIP[ip]; ok {
		return asn
	}
	return simnet.DefaultASN(ip)
}

// DialContext implements the Dialer interface used by uaclient and the
// scanner, with the same semantics as Network.DialContext.
func (s *Snapshot) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("worldview: unsupported network %q", network)
	}
	// Single-pass address parse: every grab dials several times, and
	// the split/parse/atoi chain costs three allocations per dial.
	ap, err := netip.ParseAddrPort(address)
	if err != nil {
		return nil, fmt.Errorf("worldview: %w", err)
	}
	ip, port := ap.Addr(), int(ap.Port())
	if s.cfg.Latency > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(s.cfg.Latency):
		}
	}
	sh, inUniverse := s.shardFor(ip)
	if len(sh.excluded) > 0 && sh.excluded[ip] {
		return nil, simnet.ErrRefused{Addr: address}
	}
	h, ok := sh.hosts[netip.AddrPortFrom(ip, uint16(port))]
	if !ok {
		if inUniverse && s.cfg.Noise.HitInUniverse(ip, port) {
			client, server := net.Pipe()
			go simnet.ServeNoise(server)
			return client, nil
		}
		return nil, simnet.ErrRefused{Addr: address}
	}
	// Adversarial behavior applies to registered hosts only, decided
	// purely from (seed, wave, ip, port) plus the dial's context-borne
	// attempt number — identical to Network.DialContext's chaos path.
	if b := s.cfg.Chaos.Behavior(ip.As4(), port); b.Kind != chaos.KindNone {
		if b.Refuses(chaos.AttemptFromContext(ctx)) {
			return nil, simnet.ErrRefused{Addr: address}
		}
		client, server := net.Pipe()
		go chaos.Serve(b, server, h.handler.HandleConn)
		return client, nil
	}
	client, server := net.Pipe()
	go h.handler.HandleConn(server)
	return client, nil
}
