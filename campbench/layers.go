package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	opcuastudy "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/scanner"
	"repro/internal/telemetry"
	"repro/internal/wavediff"
	"repro/internal/worldview"
)

// traceCapacity sizes the exchange tracer above the largest workload's
// grab count (56,164 on full), so no exchange is overwritten.
const traceCapacity = 1 << 17

// layerSeconds names the per-layer times that trace.explained_frac
// sums: disjoint shares of the traced campaign's work. grab_busy_s is
// left out because the uaclient phases partition it, and deploy.build_s
// because set-up precedes the campaign.
var layerSeconds = []string{
	"worldview.snapshot_s", "scanner.sweep_s",
	"uaclient.open_s", "uaclient.handshake_s", "uaclient.session_s", "uaclient.close_s",
	"wavediff.plan_s", "dataset.build_s", "dataset.encode_s", "dataset.decode_s",
	"pipeline.merge_s", "fabric.run_s", "core.fold_s",
}

// runtimeSample is the process counters a traced campaign is
// bracketed by.
type runtimeSample struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
	cpu        float64
	at         time.Time
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := runtimeSample{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, cpu: cpuSeconds(), at: time.Now()}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	return s
}

// tracedRun runs the workload once more with every observation on:
// benchmark spans around each public call, the campaign's telemetry
// registry and exchange tracer, layer replays on the run's own inputs,
// and runtime counters. refCounts are the exact counts of an untraced
// campaign of the same build, workload and seed. It returns the
// per-layer metrics, the record tally, and separately a failed
// correctness check (check) or an error that stopped the run (err).
func tracedRun(ctx context.Context, wl workload, o options, refCounts map[string]uint64, untracedWall float64) (m metricSet, records, failed int, check, err error) {
	cfg := wl.config(o.seed)
	rec := &recorder{}
	tracer := telemetry.NewTracer(traceCapacity)
	root := rec.begin("traced", noSpan)

	setupID := rec.begin("setup", root)
	worlds, err := buildWorlds(cfg, wl.worlds, rec, setupID)
	rec.end(setupID)
	if err != nil {
		return nil, 0, 0, nil, err
	}

	runtime.GC()
	before := sampleRuntime()
	campaignID := rec.begin("campaign", root)
	out, err := wl.run(ctx, cfg, worlds, hooks{rec: rec, parent: campaignID, tracer: tracer, telemetry: true})
	rec.end(campaignID)
	after := sampleRuntime()
	if err != nil {
		return nil, 0, 0, nil, err
	}
	records, failed, check = verify(o.seed, out)
	worlds = nil

	// The replays run on a world of their own: wave views cache the
	// servers they build on their world, so snapshotting the campaign's
	// world beforehand would have spared the campaign that work.
	replayID := rec.begin("replay", root)
	buildID := rec.begin("replay.BuildWorld", replayID)
	world, err := opcuastudy.BuildWorld(cfg)
	rec.end(buildID)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	views := make([]*worldview.Snapshot, len(deploy.WaveDates))
	for w := range views {
		id := rec.begin("World.SnapshotWave", replayID)
		views[w], err = world.SnapshotWave(w)
		rec.end(id)
		if err != nil {
			return nil, 0, 0, nil, err
		}
	}
	dsBytes, err := replayLayers(ctx, rec, replayID, cfg, world, views, out)
	rec.end(replayID)
	rec.end(root)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if tracer.Total() > traceCapacity {
		return nil, 0, 0, nil, fmt.Errorf("exchange tracer overflowed: %d exchanges, capacity %d", tracer.Total(), traceCapacity)
	}

	var streamBytes int
	for _, s := range out.streams {
		streamBytes += len(s)
	}
	m = layerMetrics(layerInputs{
		spans: rec.snapshot(), snap: out.snap, exchanges: tracer.Exchanges(),
		before: before, after: after, untracedWall: untracedWall,
		records: records, datasetBytes: dsBytes, streamBytes: streamBytes,
	})
	if cerr := compareCounts(countsOf(out.snap, records), refCounts); cerr != nil {
		check = errors.Join(check, cerr)
	}
	if err := writeTrace(o, rec, tracer); err != nil {
		return nil, 0, 0, nil, err
	}
	return m, records, failed, check, nil
}

// layerInputs is everything a traced run observed.
type layerInputs struct {
	spans         []span
	snap          *telemetry.Snapshot
	exchanges     []*telemetry.Exchange
	before, after runtimeSample
	untracedWall  float64
	records       int
	datasetBytes  int64
	streamBytes   int
}

// layerMetrics derives the per-layer metrics. A layer the workload
// does not execute reports zero.
func layerMetrics(in layerInputs) metricSet {
	m := metricSet{}
	self := selfTimes(in.spans)
	sec := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += selfSeconds(in.spans, self, n)
		}
		return s
	}
	snap := in.snap
	count := func(name string) float64 { return float64(snap.CounterTotal(name)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	wall := in.after.at.Sub(in.before.at).Seconds()
	cpu := in.after.cpu - in.before.cpu
	m.set("trace.campaign_s", wall, "s")
	m.set("trace.cpu_s", cpu, "s")
	m.set("trace.overhead_frac", ratio(wall, in.untracedWall)-1, "ratio")

	m.set("deploy.build_s", sec("BuildWorld"), "s")
	m.set("worldview.snapshot_s", sec("World.SnapshotWave"), "s")

	m.set("scanner.sweep_s", sec("scanner.PortScan"), "s")
	m.set("scanner.probes", count("scan_probes"), "count")
	m.set("scanner.open_ports", count("scan_open_ports"), "count")
	grabs, opcua := count("grab_done"), count("grab_opcua")
	m.set("scanner.grabs", grabs, "count")
	m.set("scanner.grabs_opcua", opcua, "count")
	m.set("scanner.grabs_noise", count("grab_noise"), "count")
	m.set("scanner.opcua_ratio", ratio(opcua, grabs), "ratio")
	m.set("scanner.followups", count("grab_followups"), "count")
	m.set("scanner.failures", count("grab_failures"), "count")
	m.set("scanner.retries", count("grab_retries"), "count")
	m.set("scanner.queue_wait_mean_ms", histMeanMs(snap, "grab_queue_wait_ns"), "ms")
	m.set("scanner.queue_depth_max", float64(snap.MaxTotal("grab_queue_depth")), "count")
	exchangeMetrics(m, in.exchanges)

	m.set("uasc.handshakes", count("handshake_attempts"), "count")
	m.set("uasc.handshakes_ok", count("handshake_ok"), "count")
	m.set("uasc.cert_rejected", count("handshake_cert_rejected"), "count")
	m.set("uasc.handshake_mean_ms", histMeanMs(snap, "handshake_ns"), "ms")

	var hits, misses float64
	for _, op := range []string{"sign", "verify", "decrypt"} {
		hits += count("crypto_" + op + "_hits")
		misses += count("crypto_" + op + "_misses")
	}
	m.set("uarsa.sign_misses", count("crypto_sign_misses"), "count")
	m.set("uarsa.verify_misses", count("crypto_verify_misses"), "count")
	m.set("uarsa.decrypt_misses", count("crypto_decrypt_misses"), "count")
	m.set("uarsa.decrypt_hits", count("crypto_decrypt_hits"), "count")
	m.set("uarsa.lookups", hits+misses, "count")
	m.set("uarsa.hit_ratio", ratio(hits, hits+misses), "ratio")

	dHits, dMisses := count("wave_delta_hits"), count("wave_delta_misses")
	m.set("wavediff.plan_s", sec("World.WaveEndpointStates", "wavediff.NewPlan", "Plan.DiffFrom"), "s")
	m.set("wavediff.hits", dHits, "count")
	m.set("wavediff.misses", dMisses, "count")
	m.set("wavediff.fallbacks", count("wave_delta_fallbacks"), "count")
	m.set("wavediff.hit_ratio", ratio(dHits, dHits+dMisses), "ratio")

	m.set("dataset.build_s", sec("dataset.FromResult"), "s")
	m.set("dataset.records", float64(in.records), "count")
	m.set("dataset.encode_s", sec("dataset.Encoder"), "s")
	m.set("dataset.decode_s", sec("dataset.Decoder"), "s")
	m.set("dataset.bytes", float64(in.datasetBytes), "B")
	m.set("pipeline.merge_s", sec("MergeShardStreams"), "s")
	m.set("core.fold_s", sec("core.AnalyzeWave", "core.AnalyzeLongitudinal"), "s")

	m.set("fabric.run_s", sec("Coordinator.Run"), "s")
	m.set("fabric.leases", count("fabric_leases_granted"), "count")
	m.set("fabric.records", count("fabric_records_received"), "count")
	m.set("fabric.stream_bytes", float64(in.streamBytes), "B")
	m.set("fabric.heartbeat_gap_max_ms", float64(snap.MaxTotal("fabric_heartbeat_gap_ns"))/1e6, "ms")

	m.set("runtime.alloc_mb", float64(in.after.totalAlloc-in.before.totalAlloc)/(1<<20), "MB")
	m.set("runtime.gc_cycles", float64(in.after.numGC-in.before.numGC), "count")
	m.set("runtime.gc_cpu_frac", ratio(in.after.gcCPU-in.before.gcCPU, cpu), "ratio")

	var explained float64
	for _, n := range layerSeconds {
		explained += m[n].Value
	}
	m.set("trace.explained_frac", ratio(explained, cpu), "ratio")
	return m
}

// histMeanMs is the mean of every histogram named name, in ms.
func histMeanMs(snap *telemetry.Snapshot, name string) float64 {
	h := snap.HistogramTotal(name)
	if h == nil || h.Count == 0 {
		return 0
	}
	return float64(h.SumNs) / float64(h.Count) / 1e6
}

// exchangeMetrics derives the grab and uaclient metrics from the
// program's per-grab exchange spans.
func exchangeMetrics(m metricSet, exchanges []*telemetry.Exchange) {
	phase := map[string]int64{}
	var busy int64
	grabMs := make([]float64, 0, len(exchanges))
	for _, ex := range exchanges {
		if len(ex.Spans) == 0 {
			continue
		}
		first, last := ex.Spans[0].StartUnixNs, int64(0)
		for _, s := range ex.Spans {
			phase[s.Name] += s.DurNs
			first = min(first, s.StartUnixNs)
			last = max(last, s.StartUnixNs+s.DurNs)
		}
		busy += last - first
		grabMs = append(grabMs, float64(last-first)/1e6)
	}
	for _, name := range []string{"open", "handshake", "session", "close"} {
		m.set("uaclient."+name+"_s", float64(phase[name])/1e9, "s")
	}
	m.set("uaclient.exchanges", float64(len(exchanges)), "count")
	m.set("scanner.grab_busy_s", float64(busy)/1e9, "s")
	m.set("scanner.grab_samples", float64(len(grabMs)), "count")
	for _, p := range []struct {
		name string
		p    float64
	}{{"scanner.grab_p50_ms", 50}, {"scanner.grab_p95_ms", 95}} {
		v, err := percentile(grabMs, p.p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campbench: %s not reported: %v\n", p.name, err)
			continue
		}
		m.set(p.name, v, "ms")
	}
}

// replayLayers re-runs each layer's public function on the traced
// campaign's own inputs, one span per call, and returns the canonical
// dataset size when the workload serialises records. A layer the
// workload does not execute is not replayed.
func replayLayers(ctx context.Context, rec *recorder, parent int, cfg opcuastudy.CampaignConfig,
	world *deploy.World, views []*worldview.Snapshot, out *outcome) (int64, error) {
	for _, view := range views {
		id := rec.begin("scanner.PortScan", parent)
		_, err := scanner.PortScan(ctx, view, scanner.PortScanConfig{})
		rec.end(id)
		if err != nil {
			return 0, err
		}
	}

	if cfg.Delta {
		// The campaign's fingerprint context: the record-shaping
		// configuration, with the chaos seed defaulting to the seed.
		fctx := wavediff.Context{Seed: cfg.Seed, TestKeySizes: cfg.TestKeySizes,
			NoiseProb: cfg.NoiseProb, MaxHosts: cfg.MaxHosts, ChaosSeed: cfg.Seed}
		var prev *wavediff.Plan
		for w := range deploy.WaveDates {
			id := rec.begin("World.WaveEndpointStates", parent)
			states, err := world.WaveEndpointStates(w)
			rec.end(id)
			if err != nil {
				return 0, err
			}
			var plan *wavediff.Plan
			rec.do("wavediff.NewPlan", parent, func() {
				plan = wavediff.NewPlan(fctx, w, w >= deploy.FollowReferencesFromWave, states)
			})
			if prev != nil {
				rec.do("Plan.DiffFrom", parent, func() { plan.DiffFrom(prev) })
			}
			prev = plan
		}
	}

	for w, wave := range out.scans {
		view := views[w]
		results := wave.DatasetResults()
		rec.do("dataset.FromResult", parent, func() {
			for _, res := range results {
				asn := 0
				if ap, err := netip.ParseAddrPort(res.Address); err == nil {
					asn = view.ASOf(ap.Addr())
				}
				dataset.FromResult(res, w, deploy.WaveDates[w], asn)
			}
		})
	}

	recs := out.records()
	byWave := map[int][]*dataset.HostRecord{}
	for _, r := range recs {
		byWave[r.Wave] = append(byWave[r.Wave], r)
	}
	var analyses []*core.WaveAnalysis
	for w, date := range deploy.WaveDates {
		if len(byWave[w]) == 0 {
			continue
		}
		rec.do("core.AnalyzeWave", parent, func() {
			analyses = append(analyses, core.AnalyzeWave(w, date, byWave[w]))
		})
	}
	rec.do("core.AnalyzeLongitudinal", parent, func() { core.AnalyzeLongitudinal(analyses) })

	if out.streams == nil {
		return 0, nil
	}
	var buf bytes.Buffer
	var encErr error
	rec.do("dataset.Encoder", parent, func() {
		enc := dataset.NewEncoder(&buf)
		for _, r := range recs {
			if encErr = enc.Encode(r); encErr != nil {
				return
			}
		}
		encErr = enc.Flush()
	})
	if encErr != nil {
		return 0, encErr
	}
	size := int64(buf.Len())
	var decErr error
	rec.do("dataset.Decoder", parent, func() {
		dec := dataset.NewDecoder(&buf)
		for {
			if _, decErr = dec.Decode(); decErr != nil {
				break
			}
		}
	})
	if !errors.Is(decErr, io.EOF) {
		return 0, decErr
	}
	return size, nil
}

// writeTrace writes the run's benchmark spans and exchange spans as
// NDJSON under the output directory.
func writeTrace(o options, rec *recorder, tracer *telemetry.Tracer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d", o.workload, o.seed))
	for _, f := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{base + ".spans.ndjson", rec.writeNDJSON},
		{base + ".exchanges.ndjson", tracer.WriteNDJSON},
	} {
		file, err := os.Create(f.path)
		if err != nil {
			return err
		}
		werr := f.write(file)
		if cerr := file.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}
