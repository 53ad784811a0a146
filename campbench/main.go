// Command campbench is the repository's benchmark: it drives the
// eight-wave campaign through the public API on one of three
// closed-loop workloads (full, delta, fabric-delta), checks the
// result, and prints one JSON object as its last line of output.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// runs the campaign once more with every observation hook attached and
// reports per-layer metrics. See README.md.
//
// Usage (from the repository root):
//
//	bash campbench/run.sh --workload delta --seed 2020 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// minSetups is how many set-ups a run times at least, each in a fresh
// process; setup_s is their median.
const minSetups = 4

// runTimeout bounds one run, so a hung campaign ends in an error.
const runTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var o options
	var trace int
	var child, setupOnly, counts bool
	flag.StringVar(&o.workload, "workload", "full", "workload: full, delta or fabric-delta")
	flag.Int64Var(&o.seed, "seed", 2020, "world and campaign seed")
	flag.Float64Var(&o.seconds, "seconds", 12, "campaign seconds to measure; whole campaigns run until this much is measured")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced campaign and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "campbench"), "directory for the traced run's span dumps")
	flag.BoolVar(&child, "child", false, "run one untraced campaign in this process and print its sample (used by the parent run)")
	flag.BoolVar(&setupOnly, "setup-only", false, "with -child: build the worlds and stop")
	flag.BoolVar(&counts, "counts", false, "with -child: attach telemetry and report the exact counts")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "campbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	var res any
	var err error
	if child {
		res, err = runChild(o, setupOnly, counts)
	} else {
		res, err = run(o)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campbench:", err)
		os.Exit(1)
	}
}

// sample is one set-up, and unless set-up only, one campaign on it,
// measured in a fresh process so that its peak RSS is its own.
type sample struct {
	SetupS    float64           `json:"setup_s"`
	CampaignS float64           `json:"campaign_s"`
	CPUS      float64           `json:"cpu_s"`
	PeakRSSMB float64           `json:"peak_rss_mb"`
	Records   int               `json:"records"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Counts    map[string]uint64 `json:"counts,omitempty"`
}

// runChild builds the workload's worlds and, unless setupOnly, runs one
// campaign on them and checks it. With counts the campaign carries a
// telemetry registry and the sample its exact counts.
func runChild(o options, setupOnly, counts bool) (*sample, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cfg := wl.config(o.seed)
	t := time.Now()
	worlds, err := buildWorlds(cfg, wl.worlds, nil, noSpan)
	if err != nil {
		return nil, err
	}
	s := &sample{SetupS: time.Since(t).Seconds()}
	if setupOnly {
		return s, nil
	}
	runtime.GC()
	cpu0, t0 := cpuSeconds(), time.Now()
	out, err := wl.run(ctx, cfg, worlds, hooks{telemetry: counts})
	s.CampaignS, s.CPUS = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	if err != nil {
		return nil, err
	}
	var check error
	s.Records, s.Failed, check = verify(o.seed, out)
	if check != nil {
		s.Problems = append(s.Problems, check.Error())
	}
	if counts {
		s.Counts = countsOf(out.snap, s.Records)
	}
	s.PeakRSSMB = peakRSSMB()
	return s, nil
}

// spawn runs one child process with the given extra flags and waits
// for it.
func spawn(ctx context.Context, o options, flags ...string) (*sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10)}, flags...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child campaign: %w", err)
	}
	s := &sample{}
	if err := json.Unmarshal(stdout, s); err != nil {
		return nil, fmt.Errorf("child campaign output: %w", err)
	}
	return s, nil
}

// run measures one workload. An error means the benchmark could not
// run; a wrong campaign result is reported as correct=false instead.
func run(o options) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res := &result{Correct: true, Metrics: metricSet{}}
	var problems []string
	tally := func(records, failed int, probs ...string) {
		res.Attempted += records
		res.Failed += failed
		if len(probs) > 0 {
			res.Correct = false
			problems = append(problems, probs...)
		}
	}

	// Untraced: whole campaigns, each in a fresh process on freshly
	// built worlds, until the measured campaign time reaches the
	// requested seconds.
	var setups, walls, cpus, rss []float64
	var measured float64
	for measured == 0 || measured < o.seconds {
		s, err := spawn(ctx, o)
		if err != nil {
			return nil, err
		}
		setups, walls = append(setups, s.SetupS), append(walls, s.CampaignS)
		cpus, rss = append(cpus, s.CPUS), append(rss, s.PeakRSSMB)
		measured += s.CampaignS
		fmt.Fprintf(os.Stderr, "campbench: %s seed %d campaign %d: setup %.3f s, campaign %.3f s, cpu %.3f s, peak RSS %.1f MB\n",
			o.workload, o.seed, len(walls), s.SetupS, s.CampaignS, s.CPUS, s.PeakRSSMB)
		tally(s.Records, s.Failed, s.Problems...)
	}

	if o.trace {
		// The reference for the exact counts: one more campaign of this
		// build, with telemetry but no tracing.
		ref, err := spawn(ctx, o, "-counts")
		if err != nil {
			return nil, err
		}
		tally(ref.Records, ref.Failed, ref.Problems...)
		layers, records, failed, check, err := tracedRun(ctx, wl, o, ref.Counts, median(walls))
		if err != nil {
			return nil, err
		}
		if check != nil {
			tally(records, failed, check.Error())
		} else {
			tally(records, failed)
		}
		res.Metrics = layers
	} else {
		// Top up the set-up samples, each in a fresh process like the
		// campaigns', so setup_s is always a median of one condition.
		for len(setups) < minSetups {
			s, err := spawn(ctx, o, "-setup-only")
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.SetupS)
		}
		okFrac := 0.0
		if res.Correct {
			okFrac = 1 - float64(res.Failed)/float64(res.Attempted)
		}
		res.Metrics = endToEnd(setups, walls, cpus, rss, okFrac)
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "campbench: check failed:", p)
	}
	return res, nil
}

// endToEnd derives the end-to-end metrics from the per-campaign
// samples: each timing and the peak RSS is a median.
func endToEnd(setups, walls, cpus, rss []float64, okFrac float64) metricSet {
	m := metricSet{}
	m.set("setup_s", median(setups), "s")
	m.set("campaign_s", median(walls), "s")
	m.set("cpu_s", median(cpus), "s")
	m.set("peak_rss_mb", median(rss), "MB")
	m.set("ok_frac", okFrac, "ratio")
	return m
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
