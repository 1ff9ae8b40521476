// Command perfbench is snapdb's end-to-end benchmark. One process
// serves an engine on a durable OSFS data directory over a loopback
// TCP listener and drives it with a closed loop of client connections,
// then reports either the end-to-end metrics (--trace 0) or, from a
// separate traced run, the per-layer metrics (--trace 1). Every run
// checks the replies it gets and the state recovery rebuilds; see
// README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"snapdb/internal/sqlparse"
)

const (
	conns         = 2 // closed-loop client connections
	setupReps     = 3 // set-ups per untraced run; setup_s is their median
	recoveries    = 7 // recoveries per untraced run; recover_s is the fastest
	tracedRecover = 1 // recoveries per engine of a traced run, for the check alone
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 15, "nominal length of the measured phase")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for data directories and span files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose correctness gate failed; its result
// is still printed, with correct=false.
var errIncorrect = errors.New("correctness check failed")

func run(name string, seed int64, seconds int, traced bool, workdir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	p := newPlan(w, seed, seconds, conns)
	res := result{Correct: true, Metrics: map[string]metric{}}
	var runErr error
	if traced {
		runErr = runTraced(p, seed, workdir, &res)
	} else {
		runErr = runUntraced(p, seed, workdir, &res)
	}
	if runErr != nil && !errors.Is(runErr, errIncorrect) {
		return runErr
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return runErr
}

// measurement is one measured phase and what it left behind.
type measurement struct {
	loop   loopResult   // all rounds together
	rounds []loopResult // the measured phase, split into consecutive rounds
	after  after
	host   host
}

// measure runs the measured phase on in as consecutive rounds, then
// stops serving and measures what the run left behind.
func measure(in *instance) (measurement, error) {
	var m measurement
	m.host = hostInfo(in.dir)
	runtime.GC() // do not bill the measured phase for set-up's garbage
	steal := stealTicks()
	n := in.p.rounds()
	for r := 0; r < n; r++ {
		m.rounds = append(m.rounds, in.round(r, n))
	}
	m.loop = combine(m.rounds)
	m.host.StealTicks = stealTicks() - steal
	if m.loop.violations > 0 {
		return m, fmt.Errorf("%w: %d operations failed their checks, first: %s", errIncorrect, m.loop.violations, m.loop.firstProblem)
	}
	var err error
	m.after, err = in.finish()
	if err != nil {
		return m, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	return m, nil
}

// recoverChecked runs k recoveries of in's data directory, each of
// which must rebuild the state the live engine ended in.
func recoverChecked(in *instance, k int, want string) ([]float64, error) {
	secs, err := in.recoverAll(k, want)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	fmt.Printf("checks: replies ok; %d recoveries matched the live state digest\n", len(secs))
	return secs, nil
}

func runUntraced(p *plan, seed int64, workdir string, res *result) error {
	var setups []float64
	var in *instance
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.close()
		}
		var err error
		if in, err = open(p, seed, workdir, nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, in.setupTo.Sub(in.setupFrom).Seconds())
	}
	defer in.close()
	m, err := measure(in)
	res.Attempted, res.Failed = m.loop.attempted, m.loop.failed
	if err != nil {
		res.Correct = false
		return err
	}
	p.warm, p.measured = nil, nil // not part of the engine's memory
	mem := heapMB()
	report(m, p.w)
	// Recover without the live engine in memory, so the collector does
	// not trace it during every recovery.
	in.eng.Close()
	in.eng = nil
	recovered, err := recoverChecked(in, recoveries, m.after.digest)
	if err != nil {
		res.Correct = false
		return err
	}

	// Each rate and percentile is the median of its per-round values,
	// so a stall confined to one round moves it little.
	var perr error
	var ops, r50, r99, c50, c99 []float64
	for _, r := range m.rounds {
		sort.Float64s(r.read)
		sort.Float64s(r.write)
		ops = append(ops, r.opsPerSecond())
		for _, x := range []struct {
			dst *[]float64
			xs  []float64
			q   float64
		}{{&r50, r.read, 0.50}, {&r99, r.read, 0.99}, {&c50, r.write, 0.50}, {&c99, r.write, 0.99}} {
			v, err := percentile(x.xs, x.q)
			perr = errors.Join(perr, err)
			*x.dst = append(*x.dst, v)
		}
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(setups))
	set("ops_per_s", "1/s", median(ops))
	set("read_p50_ms", "ms", median(r50))
	set("read_p99_ms", "ms", median(r99))
	set("commit_p50_ms", "ms", median(c50))
	set("commit_p99_ms", "ms", median(c99))
	set("recover_s", "s", minOf(recovered))
	set("space_amp", "x", m.after.spaceAmp)
	set("mem_mb", "MiB", mem)
	set("ok_frac", "fraction", 1-ratio(float64(m.loop.failed), float64(m.loop.attempted)))
	fmt.Printf("setup_s samples: %v\nrecover_s samples: %v\n", setups, recovered)
	if perr != nil {
		return fmt.Errorf("workload too small for its percentiles: %w", perr)
	}
	return nil
}

// report prints the run record: host, sample counts, checks.
func report(m measurement, w *workload) {
	h, _ := json.Marshal(m.host)
	fmt.Printf("workload %s: %d operations, %d failed, %.3fs measured\n",
		w.name, m.loop.attempted, m.loop.failed, m.loop.to.Sub(m.loop.from).Seconds())
	fmt.Printf("host %s\n", h)
	for i, r := range m.rounds {
		fmt.Printf("round %d: %d read samples, %d commit samples\n", i+1, len(r.read), len(r.write))
	}
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// counters is a snapshot of the engine's own counters, read through its
// public accessors.
type counters struct {
	planHits, planMisses                   uint64
	qcHits, qcMisses, qcInvalidations      uint64
	bpHits, bpMisses, bpEvictions, bpFetch uint64
	walCommits, walFlushes                 uint64
	blogEvents, blogFlushes                uint64
}

func readCounters(in *instance) counters {
	var c counters
	e := in.eng
	c.planHits, c.planMisses, _ = e.PlanCacheStats()
	c.qcHits, c.qcMisses, c.qcInvalidations = e.QueryCache().Stats()
	c.bpHits, c.bpMisses, c.bpEvictions = e.BufferPool().Stats()
	c.bpFetch = e.BufferPool().FetchCount()
	c.walCommits, c.walFlushes = e.WAL().GroupCommitStats()
	c.blogEvents, c.blogFlushes = e.Binlog().GroupCommitStats()
	return c
}

func runTraced(p *plan, seed int64, workdir string, res *result) error {
	// An untraced baseline and the traced engine serve side by side and
	// take turns round by round, so drift on the host hits both alike.
	// The baseline's throughput is what the tracing overhead is
	// measured against.
	base, err := open(p, seed, workdir, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer base.close()
	tr := newTracer()
	in, err := open(p, seed, workdir, tr)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer in.close()

	runtime.GC()
	c0 := readCounters(in)
	var gc gcDelta
	steal := stealTicks()
	n := maxRounds // per-layer metrics take no percentile per round
	var baseRounds, rounds []loopResult
	for r := 0; r < n; r++ {
		baseRounds = append(baseRounds, base.round(r, n))
		g0 := sampleGC()
		rounds = append(rounds, in.round(r, n))
		gc.add(g0, sampleGC())
	}
	stealD := stealTicks() - steal
	c1 := readCounters(in)
	bl, l := combine(baseRounds), combine(rounds)
	res.Attempted, res.Failed = bl.attempted+l.attempted, bl.failed+l.failed
	for _, x := range []loopResult{bl, l} {
		if x.violations > 0 {
			res.Correct = false
			return fmt.Errorf("%w: %d operations failed their checks, first: %s", errIncorrect, x.violations, x.firstProblem)
		}
	}
	// Parse every measured statement directly, outside the measured
	// window, to time the parser on exactly the text the server got.
	parseFrom := time.Now()
	for _, ops := range p.measured {
		for _, o := range ops {
			for _, s := range o.stmts {
				start := time.Now()
				if _, err := sqlparse.Parse(s); err != nil {
					return fmt.Errorf("parse %q: %w", s, err)
				}
				tr.record("sqlparse.parse", 0, start, 0)
			}
		}
	}
	parseTo := time.Now()
	var a after
	for _, x := range []*instance{base, in} {
		if a, err = x.finish(); err != nil {
			err = fmt.Errorf("%w: %v", errIncorrect, err)
		} else {
			_, err = recoverChecked(x, tracedRecover, a.digest)
		}
		if err != nil {
			res.Correct = false
			return err
		}
	}
	tm := measurement{loop: l, rounds: rounds, after: a, host: hostInfo(in.dir)}
	tm.host.StealTicks = stealD
	report(tm, p.w)

	ops := float64(l.attempted)
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	d := func(a, b uint64) float64 { return float64(b - a) }

	// durs returns the durations (ms) of layer's spans in [from, to),
	// their sum, and the bytes they moved.
	durs := func(layer string, from, to time.Time) (ms []float64, sumMs float64, bytes int64) {
		for _, s := range tr.window(layer, from, to) {
			v := float64(s.Dur) / 1e6
			ms = append(ms, v)
			sumMs += v
			bytes += s.Bytes
		}
		return ms, sumMs, bytes
	}

	service, serviceMs, _ := durs("server.request", l.from, l.to)
	set("server.service_p50_ms", "ms", median(service))
	set("server.wire_share", "fraction", 1-ratio(serviceMs/1e3, l.stmtSeconds))
	parse, _, _ := durs("sqlparse.parse", parseFrom, parseTo)
	set("sqlparse.parse_us", "us", median(parse)*1e3)
	set("plancache.hit_ratio", "fraction", ratio(d(c0.planHits, c1.planHits), d(c0.planHits, c1.planHits)+d(c0.planMisses, c1.planMisses)))
	set("querycache.hit_ratio", "fraction", ratio(d(c0.qcHits, c1.qcHits), d(c0.qcHits, c1.qcHits)+d(c0.qcMisses, c1.qcMisses)))
	set("querycache.invalidations_per_op", "count", d(c0.qcInvalidations, c1.qcInvalidations)/ops)
	set("exec.examined_per_returned", "count", ratio(float64(l.examined), float64(l.returned)))
	set("bufpool.fetches_per_op", "count", d(c0.bpFetch, c1.bpFetch)/ops)
	set("bufpool.hit_ratio", "fraction", ratio(d(c0.bpHits, c1.bpHits), d(c0.bpHits, c1.bpHits)+d(c0.bpMisses, c1.bpMisses)))
	set("bufpool.evictions_per_op", "count", d(c0.bpEvictions, c1.bpEvictions)/ops)
	set("wal.flushes_per_op", "count", d(c0.walFlushes, c1.walFlushes)/ops)
	set("wal.commits_per_flush", "count", ratio(d(c0.walCommits, c1.walCommits), d(c0.walFlushes, c1.walFlushes)))
	set("binlog.flushes_per_op", "count", d(c0.blogFlushes, c1.blogFlushes)/ops)
	set("binlog.events_per_flush", "count", ratio(d(c0.blogEvents, c1.blogEvents), d(c0.blogFlushes, c1.blogFlushes)))

	syncDur, syncMs, _ := durs("vfs.sync", l.from, l.to)
	_, _, belowWritten := durs("vfs.write", l.from, l.to)
	set("vfs.syncs_per_op", "count", float64(len(syncDur))/ops)
	set("vfs.sync_p50_ms", "ms", median(syncDur))
	set("vfs.sync_s_per_op", "s", syncMs/1e3/ops)
	set("vfs.write_bytes_per_op", "B", float64(belowWritten)/ops)
	setupSyncs, _, _ := durs("vfs.sync", in.setupFrom, in.setupTo)
	set("vfs.setup_syncs_per_row", "count", float64(len(setupSyncs))/float64(p.w.tables*p.w.rows))

	// CryptFS self time: what the calls above it took, less the calls
	// it made into the layer below.
	var above, below float64
	var aboveWritten int64
	for _, kind := range []string{"write", "read", "sync", "meta"} {
		_, ms, b := durs("cryptfs."+kind, l.from, l.to)
		above += ms
		if kind == "write" {
			aboveWritten = b
		}
		_, ms, _ = durs("vfs."+kind, l.from, l.to)
		below += ms
	}
	if aboveWritten > 0 {
		set("cryptfs.self_ms_per_op", "ms", (above-below)/ops)
		set("cryptfs.write_amp", "x", float64(belowWritten)/float64(aboveWritten))
	} else {
		set("cryptfs.self_ms_per_op", "ms", 0)
		set("cryptfs.write_amp", "x", 0)
	}
	set("recover.wal_mb_replayed", "MiB", float64(a.walBytes)/(1<<20))
	set("mvcc.versions_retained", "count", float64(a.versions))
	set("go.gc_cpu_frac", "fraction", gc.cpuFrac())
	set("go.gc_pause_p99_ms", "ms", gc.pauseP99ms())
	var baseOps, tracedOps []float64
	for r := range rounds {
		baseOps = append(baseOps, baseRounds[r].opsPerSecond())
		tracedOps = append(tracedOps, rounds[r].opsPerSecond())
	}
	set("trace.overhead_frac", "fraction", 1-median(tracedOps)/median(baseOps))

	spans := filepath.Join(workdir, "spans-"+p.w.name+".jsonl")
	if err := tr.writeFile(spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spans)
	return nil
}
