package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	opcuastudy "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/fabric"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/telemetry"
)

// workload is one closed-loop campaign configuration the benchmark
// drives through the program's public API.
type workload struct {
	// worlds is how many worlds one set-up builds: one per process that
	// would own one.
	worlds int
	config func(seed int64) opcuastudy.CampaignConfig
	run    func(ctx context.Context, cfg opcuastudy.CampaignConfig, worlds []*deploy.World, h hooks) (*outcome, error)
}

// workloads is every workload by name; BENCHMARK.json lists the same
// names.
var workloads = map[string]workload{
	"full": {
		worlds: 1,
		config: func(seed int64) opcuastudy.CampaignConfig {
			cfg := baseConfig(seed)
			cfg.Shards = 1
			return cfg
		},
		run: runLocal,
	},
	"delta": {
		worlds: 1,
		config: func(seed int64) opcuastudy.CampaignConfig {
			cfg := baseConfig(seed)
			cfg.Shards = 1
			cfg.Delta = true
			return cfg
		},
		run: runLocal,
	},
	"fabric-delta": {
		worlds: fabricWorkers,
		config: func(seed int64) opcuastudy.CampaignConfig {
			cfg := baseConfig(seed)
			cfg.Delta = true
			// Each worker grabs on one connection, so the fleet keeps
			// the same two connections in flight as the local workloads.
			cfg.GrabWorkers = 1
			return cfg
		},
		run: runFabric,
	},
}

// fabricWorkers is the fabric-delta fleet size; each worker leases one
// shard.
const fabricWorkers = 2

// baseConfig is the set-up every workload shares: all eight waves, the
// cmd/measure noise default, no injected latency, 512-bit test keys,
// and two connections in flight (each connection also runs its
// simulated server in this process, and the reference machine has two
// cores).
func baseConfig(seed int64) opcuastudy.CampaignConfig {
	return opcuastudy.CampaignConfig{
		Seed:         seed,
		TestKeySizes: true,
		NoiseProb:    0.002,
		GrabWorkers:  2,
	}
}

// hooks is what a traced run attaches to a campaign. The zero value is
// an untraced run.
type hooks struct {
	rec    *recorder
	parent int
	// tracer receives the program's per-grab exchange spans.
	tracer *telemetry.Tracer
	// telemetry gives the campaign telemetry registries; the outcome
	// then carries their merged snapshot.
	telemetry bool
}

// outcome is what one campaign produced.
type outcome struct {
	analyses []*core.WaveAnalysis
	long     *core.Longitudinal
	tables   []*report.Table
	// byWave is the local campaigns' retained dataset; merged is the
	// fabric campaign's merged stream. records() flattens either.
	byWave map[int][]*dataset.HostRecord
	merged []*dataset.HostRecord
	// scans is the local campaigns' raw scan per wave (nil for fabric).
	scans map[int]*scanner.Wave
	// streams is the fabric campaign's committed NDJSON per shard.
	streams [][]byte
	// snap is the merged telemetry of a campaign run with telemetry.
	snap *telemetry.Snapshot
}

// records returns the dataset in canonical order.
func (o *outcome) records() []*dataset.HostRecord {
	if o.byWave == nil {
		return o.merged
	}
	var all []*dataset.HostRecord
	for w := range deploy.WaveDates {
		all = append(all, o.byWave[w]...)
	}
	return all
}

// buildWorlds builds n worlds concurrently, as n worker processes
// would, one span each.
func buildWorlds(cfg opcuastudy.CampaignConfig, n int, rec *recorder, parent int) ([]*deploy.World, error) {
	worlds := make([]*deploy.World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range worlds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := rec.begin("BuildWorld", parent)
			worlds[i], errs[i] = opcuastudy.BuildWorld(cfg)
			rec.end(id)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return worlds, nil
}

// runLocal runs the single-process campaign and renders the report.
func runLocal(ctx context.Context, cfg opcuastudy.CampaignConfig, worlds []*deploy.World, h hooks) (*outcome, error) {
	var reg *telemetry.Registry
	if h.telemetry {
		reg = telemetry.New()
		cfg.Telemetry = reg
	}
	cfg.Trace = h.tracer
	id := h.rec.begin("RunCampaignOnWorld", h.parent)
	c, err := opcuastudy.RunCampaignOnWorld(ctx, cfg, worlds[0])
	h.rec.end(id)
	if err != nil {
		return nil, err
	}
	out := &outcome{analyses: c.Analyses, long: c.Long, byWave: c.RecordsByWave, scans: c.Scans}
	h.rec.do("report.All", h.parent, func() { out.tables = c.Report() })
	if reg != nil {
		out.snap = reg.Snapshot()
	}
	return out, nil
}

// runFabric runs the campaign as an in-process loopback fabric: a
// coordinator and one RunWorker goroutine per prebuilt world. Each
// worker derives its configuration from the coordinator's hello, as a
// worker process does. The committed shard streams are decoded,
// merged and folded, and the report is rendered.
func runFabric(ctx context.Context, cfg opcuastudy.CampaignConfig, worlds []*deploy.World, h hooks) (*outcome, error) {
	n := len(worlds)
	spec := cfg.FabricSpec(n, 0)
	hello, err := spec.Encode()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var coordReg *telemetry.Registry
	workerRegs := make([]*telemetry.Registry, n)
	if h.telemetry {
		coordReg = telemetry.New()
		for i := range workerRegs {
			workerRegs[i] = telemetry.New()
		}
	}
	coord := fabric.NewCoordinator(ln, fabric.CoordinatorConfig{
		Shards:   n,
		Hello:    hello,
		Prefetch: 1,
		Metrics:  coordReg,
	})

	// A worker that gives up stops the coordinator too, so Run cannot
	// wait for a shard nobody will commit.
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	runID := h.rec.begin("Coordinator.Run", h.parent)
	workerErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := range worlds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runner := func(ctx context.Context, hello []byte, shard int, sink pipeline.RecordSink) error {
				spec, err := fabric.DecodeSpec(hello)
				if err != nil {
					return err
				}
				wcfg := opcuastudy.CampaignFromSpec(*spec)
				wcfg.Telemetry = workerRegs[i]
				wcfg.Trace = h.tracer
				id := h.rec.begin("RunCampaignShard", runID)
				defer h.rec.end(id)
				return opcuastudy.RunCampaignShard(ctx, wcfg, worlds[i], spec.Shards, shard, sink)
			}
			err := fabric.RunWorker(runCtx, fabric.WorkerConfig{
				Addr:      coord.Addr().String(),
				Name:      fmt.Sprintf("worker-%d", i),
				RetrySeed: cfg.Seed + int64(i),
				Metrics:   workerRegs[i],
			}, runner)
			if err != nil {
				workerErrs[i] = fmt.Errorf("worker %d: %w", i, err)
				stop()
			}
		}(i)
	}
	streams, err := coord.Run(runCtx)
	h.rec.end(runID)
	stop()
	wg.Wait()
	if err != nil {
		return nil, errors.Join(append(workerErrs, fmt.Errorf("coordinator: %w", err))...)
	}

	out := &outcome{streams: streams}
	decoders := make([]*dataset.Decoder, n)
	for i, s := range streams {
		decoders[i] = dataset.NewDecoder(bytes.NewReader(s))
	}
	analyzer := pipeline.NewAnalyzer(pipeline.AnalyzerConfig{Retain: true})
	keep := &pipeline.SliceSink{}
	var sink pipeline.RecordSink = pipeline.Tee(analyzer, keep)
	mergeID := h.rec.begin("MergeShardStreams", h.parent)
	if h.rec != nil {
		sink = &timedSink{next: sink, rec: h.rec, parent: mergeID}
	}
	err = pipeline.MergeShardStreams(sink, decoders...)
	if err == nil {
		err = sink.Close()
	}
	h.rec.end(mergeID)
	if err != nil {
		return nil, err
	}
	out.analyses, out.long = analyzer.Results()
	out.merged = keep.Records
	h.rec.do("report.All", h.parent, func() { out.tables = report.All(out.analyses, out.long) })

	if h.telemetry {
		snaps := []*telemetry.Snapshot{coordReg.Snapshot()}
		for _, r := range workerRegs {
			snaps = append(snaps, r.Snapshot())
		}
		if out.snap, err = telemetry.MergeSnapshots("fabric", snaps...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// timedSink records one span per Put and Close of the sink it wraps, so
// the merge's self time excludes the fold it feeds.
type timedSink struct {
	next   pipeline.RecordSink
	rec    *recorder
	parent int
}

func (s *timedSink) Put(r *dataset.HostRecord) error {
	id := s.rec.begin("Analyzer.Put", s.parent)
	err := s.next.Put(r)
	s.rec.end(id)
	return err
}

func (s *timedSink) Close() error {
	id := s.rec.begin("Analyzer.Close", s.parent)
	err := s.next.Close()
	s.rec.end(id)
	return err
}
