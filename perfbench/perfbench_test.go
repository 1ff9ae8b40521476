package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"snapdb/internal/engine"
)

func TestSameSeedSameStatements(t *testing.T) {
	for _, w := range workloads {
		a := newPlan(w, 7, 1, conns).statementText()
		b := newPlan(w, 7, 1, conns).statementText()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different statement streams", w.name)
		}
		if c := newPlan(w, 8, 1, conns).statementText(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced the same statement stream", w.name)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{10, 0.50, 0, false},
	} {
		got, err := percentile(sorted(c.n), c.q)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %g) = %g, %v; want %g, ok=%v", c.n, c.q, got, err, c.want, c.ok)
		}
	}
}

// TestTimingWrappersAreTransparent runs the same one-connection plan
// with and without the timing FS and listener wrappers: the engine must
// end in the same state with the same bytes on disk. The binlog stamps
// wall-clock seconds into its events, so only its length is compared.
func TestTimingWrappersAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("serves two durable engines per workload")
	}
	for _, name := range []string{"point-durable", "txn-encrypted"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(tr *tracer) (after, map[string][]byte) {
			p := newPlan(w, 3, 1, 1)
			p.measured[0] = p.measured[0][:min(2000, len(p.measured[0]))]
			in, err := open(p, 3, t.TempDir(), tr)
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			if l := in.loop(p.measured); l.failed+l.violations > 0 {
				t.Fatalf("%s: %d failed, %d checks failed: %s", name, l.failed, l.violations, l.firstProblem)
			}
			a, err := in.finish()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.recoverAll(1, a.digest); err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{}
			ents, err := os.ReadDir(in.dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				b, err := os.ReadFile(filepath.Join(in.dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				files[e.Name()] = b
			}
			return a, files
		}
		plain, plainFiles := run(nil)
		tr := newTracer()
		traced, tracedFiles := run(tr)
		if plain.digest != traced.digest {
			t.Errorf("%s: state digest %s without wrappers, %s with", name, plain.digest, traced.digest)
		}
		if len(plainFiles) != len(tracedFiles) {
			t.Errorf("%s: %d files without wrappers, %d with", name, len(plainFiles), len(tracedFiles))
		}
		for f, b := range plainFiles {
			tb, ok := tracedFiles[f]
			switch {
			case !ok:
				t.Errorf("%s: %s missing with wrappers", name, f)
			case f == engine.FileBinlog && len(b) != len(tb):
				t.Errorf("%s: %s is %d bytes without wrappers, %d with", name, f, len(b), len(tb))
			case f != engine.FileBinlog && !bytes.Equal(b, tb):
				t.Errorf("%s: %s differs with wrappers", name, f)
			}
		}
		if len(tr.window("vfs.sync", tr.origin, tr.origin.Add(1<<62))) == 0 || len(tr.window("server.request", tr.origin, tr.origin.Add(1<<62))) == 0 {
			t.Errorf("%s: the traced run recorded no vfs or server spans", name)
		}
	}
}

// statementText concatenates every statement of the plan, one per
// line, in the order the plan defines them.
func (p *plan) statementText() []byte {
	var b bytes.Buffer
	for _, s := range p.schema {
		b.WriteString(s + "\n")
	}
	for _, t := range p.preload {
		for _, s := range t {
			b.WriteString(s + "\n")
		}
	}
	for _, streams := range [][][]op{p.warm, p.measured} {
		for c, ops := range streams {
			fmt.Fprintf(&b, "-- conn %d\n", c)
			for _, o := range ops {
				for _, s := range o.stmts {
					b.WriteString(s + "\n")
				}
			}
		}
	}
	return b.Bytes()
}
