package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"snapdb/internal/client"
	"snapdb/internal/crypto/prim"
	"snapdb/internal/engine"
	"snapdb/internal/server"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
)

// engineConfig is the configuration every run serves with: the
// engine's defaults, plus deterministic-page encryption at rest for an
// encrypted workload. The FS is attached by the caller.
func engineConfig(w *workload, seed int64) engine.Config {
	cfg := engine.Defaults()
	if w.encrypted {
		cfg.EncryptAtRest = true
		cfg.EncryptionKey = prim.Key(sha256.Sum256([]byte(fmt.Sprintf("perfbench key %d", seed))))
	}
	return cfg
}

// instance is one served engine: an OSFS data directory, the engine,
// the server on a loopback listener, and the client connections.
type instance struct {
	p        *plan
	seed     int64
	dir      string
	osfs     *vfs.OSFS
	eng      *engine.Engine
	srv      *server.Server
	serveErr chan error
	conns    []*client.Conn
	tr       *tracer // nil for an untraced run

	setupFrom, setupTo time.Time
}

// open starts an engine on a fresh data directory under workdir, serves
// it, and runs the schema, the preload and the untimed warm-up through
// the client connections. With tr set, the FS stack and the listener
// are wrapped in timing layers.
func open(p *plan, seed int64, workdir string, tr *tracer) (*instance, error) {
	dir, err := os.MkdirTemp(workdir, "data-")
	if err != nil {
		return nil, err
	}
	in := &instance{p: p, seed: seed, dir: dir, tr: tr, setupFrom: time.Now()}
	if err := in.start(); err != nil {
		in.close()
		return nil, err
	}
	in.setupTo = time.Now()
	return in, nil
}

func (in *instance) start() error {
	osfs, err := vfs.NewOSFS(in.dir)
	if err != nil {
		return err
	}
	in.osfs = osfs
	cfg := engineConfig(in.p.w, in.seed)
	cfg.FS = osfs
	if in.tr != nil {
		fs := vfs.FS(newTimingFS(osfs, "vfs", in.tr))
		if cfg.EncryptAtRest {
			// The same wrapping the engine applies for EncryptAtRest,
			// done here so a timing layer can sit above the CryptFS too.
			cfs, err := vfs.NewCryptFS(fs, cfg.EncryptionKey, cfg.DeterministicPages)
			if err != nil {
				return err
			}
			fs = newTimingFS(cfs, "cryptfs", in.tr)
			cfg.EncryptAtRest = false
		}
		cfg.FS = fs
	}
	in.eng, err = engine.New(cfg)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if in.tr != nil {
		ln = &timingListener{Listener: ln, tr: in.tr}
	}
	in.srv = server.New(in.eng)
	in.serveErr = make(chan error, 1)
	go func() { in.serveErr <- in.srv.Serve(ln) }()
	for range in.p.measured {
		conn, err := client.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		in.conns = append(in.conns, conn)
	}
	for _, s := range in.p.schema {
		if _, err := in.conns[0].Execute(s); err != nil {
			return fmt.Errorf("schema %q: %w", s, err)
		}
	}
	if err := in.preload(); err != nil {
		return err
	}
	warm := in.loop(in.p.warm)
	if warm.failed > 0 || warm.violations > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed, %d checks failed (%s)",
			warm.failed, warm.attempted, warm.violations, warm.firstProblem)
	}
	return nil
}

// preload loads each table in ascending id order on one connection,
// with the tables spread over the connections so they load at once.
func (in *instance) preload() error {
	errs := make([]error, len(in.conns))
	var wg sync.WaitGroup
	for c := range in.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for t := c; t < len(in.p.preload); t += len(in.conns) {
				for i, s := range in.p.preload[t] {
					res, err := in.conns[c].Execute(s)
					if want := min(preloadBatch, in.p.w.rows-i*preloadBatch); err == nil && res.RowsAffected != want {
						err = fmt.Errorf("inserted %d rows, want %d", res.RowsAffected, want)
					}
					if err != nil {
						errs[c] = fmt.Errorf("preload table %d statement %d: %w", t, i, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close stops serving and removes the data directory. Engines keep
// their log files open until the process exits; on POSIX systems the
// directory can be removed under them.
func (in *instance) close() {
	in.stop()
	if in.eng != nil {
		in.eng.Close()
	}
	_ = os.RemoveAll(in.dir)
}

// stop closes the client connections and the server, and waits for
// Serve to return.
func (in *instance) stop() {
	for _, c := range in.conns {
		_ = c.Close()
	}
	in.conns = nil
	if in.srv != nil {
		_ = in.srv.Close()
		<-in.serveErr
		in.srv = nil
	}
}

// loopResult is what one pass of the closed loop observed. Latencies
// are in ms and hold successful operations only.
type loopResult struct {
	read, write        []float64
	attempted, failed  int
	violations         int
	firstProblem       string
	examined, returned int64
	stmtSeconds        float64 // summed client round trips of single statements
	from, to           time.Time
}

func (r *loopResult) merge(o loopResult) {
	r.read = append(r.read, o.read...)
	r.write = append(r.write, o.write...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.violations += o.violations
	if r.firstProblem == "" {
		r.firstProblem = o.firstProblem
	}
	r.examined += o.examined
	r.returned += o.returned
	r.stmtSeconds += o.stmtSeconds
}

// loop runs streams[c] on connection c, every connection at once, each
// sending its next operation only after the previous one completed.
func (in *instance) loop(streams [][]op) loopResult {
	parts := make([]loopResult, len(streams))
	var wg sync.WaitGroup
	from := time.Now()
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = in.connLoop(c, streams[c])
		}(c)
	}
	wg.Wait()
	var out loopResult
	for _, p := range parts {
		out.merge(p)
	}
	out.from, out.to = from, time.Now()
	return out
}

// round runs round r of n of the measured phase: the r-th of n equal
// slices of every connection's stream.
func (in *instance) round(r, n int) loopResult {
	chunk := make([][]op, len(in.p.measured))
	for c, ops := range in.p.measured {
		chunk[c] = ops[len(ops)*r/n : len(ops)*(r+1)/n]
	}
	return in.loop(chunk)
}

// combine merges consecutive rounds into one result spanning them.
func combine(rounds []loopResult) loopResult {
	var out loopResult
	for _, r := range rounds {
		out.merge(r)
	}
	out.from, out.to = rounds[0].from, rounds[len(rounds)-1].to
	return out
}

func (l *loopResult) opsPerSecond() float64 {
	return float64(l.attempted-l.failed) / l.to.Sub(l.from).Seconds()
}

func (in *instance) connLoop(c int, ops []op) loopResult {
	conn := in.conns[c]
	r := loopResult{read: make([]float64, 0, len(ops)), write: make([]float64, 0, len(ops)/4)}
	problem := func(err error) {
		if r.firstProblem == "" {
			r.firstProblem = err.Error()
		}
	}
	for i := range ops {
		o := &ops[i]
		r.attempted++
		start := time.Now()
		var opID uint64
		if in.tr != nil {
			opID = in.tr.reserve()
		}
		var (
			res *client.Result
			err error
		)
		bad := false // a check failed on this operation
		for _, s := range o.stmts {
			stStart := time.Now()
			res, err = conn.Execute(s)
			if in.tr != nil {
				in.tr.record("client.stmt", opID, stStart, 0)
				r.stmtSeconds += time.Since(stStart).Seconds()
			}
			if err != nil {
				break
			}
			if o.check == checkWrite && s != "BEGIN" && s != "COMMIT" && res.RowsAffected != 1 {
				problem(fmt.Errorf("%q affected %d rows, want 1", s, res.RowsAffected))
				bad = true
			}
		}
		elapsed := time.Since(start)
		if in.tr != nil {
			in.tr.addAs(opID, span{Layer: "client.op", Start: in.tr.ns(start), Dur: elapsed.Nanoseconds()})
		}
		if err != nil {
			r.failed++
			problem(fmt.Errorf("%q: %w", o.stmts[0], err))
			if o.stmts[0] == "BEGIN" {
				_, _ = conn.Execute("ROLLBACK")
			}
			continue
		}
		if o.class == classRead {
			r.examined += int64(res.RowsExamined)
			r.returned += int64(len(res.Rows))
			if cerr := in.p.checkRead(o, res); cerr != nil {
				problem(fmt.Errorf("%q: %w", o.stmts[0], cerr))
				bad = true
			}
		}
		if bad {
			r.violations++
			continue
		}
		ms := float64(elapsed.Nanoseconds()) / 1e6
		if o.class == classRead {
			r.read = append(r.read, ms)
		} else {
			r.write = append(r.write, ms)
		}
	}
	return r
}

// checkRead validates a read's reply against the preloaded dataset.
func (p *plan) checkRead(o *op, res *client.Result) error {
	switch o.check {
	case checkPoint:
		if len(res.Rows) > 1 {
			return fmt.Errorf("point read returned %d rows", len(res.Rows))
		}
		if len(res.Rows) == 1 {
			if err := p.checkRow(o.table, res.Rows[0]); err != nil {
				return err
			}
			if res.Rows[0][0].Int != o.a {
				return fmt.Errorf("point read of id %d returned id %d", o.a, res.Rows[0][0].Int)
			}
		}
	case checkCount:
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || !res.Rows[0][0].IsInt || res.Rows[0][0].Int != o.b-o.a+1 {
			return fmt.Errorf("COUNT over %d..%d returned %v, want %d", o.a, o.b, res.Rows, o.b-o.a+1)
		}
	case checkRange:
		if int64(len(res.Rows)) != o.b-o.a+1 {
			return fmt.Errorf("range %d..%d returned %d rows", o.a, o.b, len(res.Rows))
		}
		for i, row := range res.Rows {
			if err := p.checkRow(o.table, row); err != nil {
				return err
			}
			if row[0].Int != o.a+int64(i) {
				return fmt.Errorf("range %d..%d row %d has id %d", o.a, o.b, i, row[0].Int)
			}
		}
	case checkTopN:
		want := p.data.byK[o.table][o.a]
		if int64(len(want)) > o.b {
			want = want[:o.b]
		}
		if len(res.Rows) != len(want) {
			return fmt.Errorf("k=%d returned %d rows, want %d", o.a, len(res.Rows), len(want))
		}
		for i, row := range res.Rows {
			if err := p.checkRow(o.table, row); err != nil {
				return err
			}
			if row[0].Int != want[i] {
				return fmt.Errorf("k=%d row %d has id %d, want %d", o.a, i, row[0].Int, want[i])
			}
		}
	}
	return nil
}

// after is what the run leaves behind, measured once serving stopped.
type after struct {
	digest   string // the live engine's StateDigest
	spaceAmp float64
	versions int
	walBytes int64 // redo + undo file bytes a recovery replays
}

// finish stops serving and measures what the run left on disk and in
// the version store.
func (in *instance) finish() (after, error) {
	var a after
	in.stop()
	live, err := in.eng.StateDigest()
	if err != nil {
		return a, fmt.Errorf("live digest: %w", err)
	}
	a.digest = live
	var logical int64
	for _, t := range in.eng.Tables() {
		if err := t.Tree.Scan(func(r storage.Record) bool {
			for _, v := range r {
				if v.IsInt {
					logical += 8
				} else {
					logical += int64(len(v.Str))
				}
			}
			return true
		}); err != nil {
			return a, err
		}
	}
	ents, err := os.ReadDir(in.dir)
	if err != nil {
		return a, err
	}
	var disk int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return a, err
		}
		disk += fi.Size()
		if e.Name() == engine.FileRedo || e.Name() == engine.FileUndo {
			a.walBytes += fi.Size()
		}
	}
	a.spaceAmp = ratio(float64(disk), float64(logical))
	a.versions = len(in.eng.VersionResidue())
	return a, nil
}

// recoverAll recovers the data directory k times and returns each
// recovery's duration in seconds. Every recovery must rebuild exactly
// the state whose digest is want.
func (in *instance) recoverAll(k int, want string) ([]float64, error) {
	var secs []float64
	cfg := engineConfig(in.p.w, in.seed)
	for i := 0; i < k; i++ {
		// Start every recovery from a collected heap, so the garbage of
		// the run and of the previous recovery is not billed to it.
		runtime.GC()
		start := time.Now()
		rec, _, err := engine.Recover(in.osfs, cfg)
		d := time.Since(start).Seconds()
		if err != nil {
			return secs, fmt.Errorf("recovery %d: %w", i+1, err)
		}
		got, err := rec.StateDigest()
		rec.Close()
		if err != nil {
			return secs, fmt.Errorf("recovery %d digest: %w", i+1, err)
		}
		if got != want {
			return secs, fmt.Errorf("recovery %d rebuilt state %s, live engine held %s", i+1, got, want)
		}
		secs = append(secs, d)
	}
	return secs, nil
}
