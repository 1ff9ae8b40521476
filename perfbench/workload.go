package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"snapdb/internal/sqlparse"
)

// Every table the benchmark creates has the shape (id INT PRIMARY KEY,
// k INT, v TEXT) with a secondary index on k. Preloaded ids run 1..rows;
// k never changes after the preload, and every v the benchmark writes is
// valueLen characters: 'v' followed by lowercase hex digits. The read
// checks rely on all three facts.

// opClass picks the latency histogram an operation's round trip feeds.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
)

// checkKind names the correctness check applied to a read's reply.
type checkKind uint8

const (
	checkPoint checkKind = iota // at most one row: (a, k of a, v of the shape)
	checkCount                  // one row holding b-a+1
	checkRange                  // exactly the rows a..b, ascending, of the shape
	checkTopN                   // the first rows with k = a in id order, at most b of them
	checkWrite                  // every DML statement affects exactly one row
)

// op is one closed-loop operation: a single read statement, or the
// statements of one write (an autocommit DML, or BEGIN … COMMIT).
type op struct {
	class opClass
	check checkKind
	table int
	stmts []string
	a, b  int64
}

// workload is one traffic mix over one schema.
type workload struct {
	name      string
	tables    int
	rows      int // preloaded rows per table
	valueLen  int
	kRange    int64
	encrypted bool
	// opsPerSecond is the nominal measured-phase rate: a run of s
	// seconds performs exactly opsPerSecond×s operations, so the WAL
	// bytes, space amplification and recovery work of a run depend on
	// the seed and s only, never on how fast the host happened to be.
	opsPerSecond int
	// warmup is the untimed operation count per connection that runs
	// before the measured phase, inside set-up.
	warmup int
	next   func(g *gen) op
}

const (
	preloadBatch  = 100 // rows per preload INSERT
	txnInsertBase = 1e6 // first id a connection's transactions insert (× connection+1)
)

var workloads = []*workload{
	{
		name:         "point-durable",
		tables:       4,
		rows:         2000,
		valueLen:     40,
		kRange:       500,
		opsPerSecond: 12000,
		warmup:       1000,
		next:         nextPointDurable,
	},
	{
		name:         "txn-encrypted",
		tables:       4,
		rows:         2000,
		valueLen:     40,
		kRange:       500,
		encrypted:    true,
		opsPerSecond: 600,
		warmup:       100,
		next:         nextTxnEncrypted,
	},
	{
		name:         "scan-evict",
		tables:       1,
		rows:         8000,
		valueLen:     250,
		kRange:       400,
		opsPerSecond: 1500,
		warmup:       300,
		next:         nextScanEvict,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func tableName(w *workload, i int) string {
	if w.tables == 1 {
		return "s"
	}
	return "t" + strconv.Itoa(i)
}

// dataset is the preloaded content a workload's checks compare against.
type dataset struct {
	kOf [][]int64           // kOf[table][id]; index 0 unused
	byK []map[int64][]int64 // byK[table][k]: ids with that k, ascending
}

// plan is everything a run sends: schema, preload, and each
// connection's warm-up and measured operation streams.
type plan struct {
	w        *workload
	schema   []string
	preload  [][]string // preload[table]
	warm     [][]op     // warm[conn]
	measured [][]op     // measured[conn]
	data     dataset
}

// newPlan derives a run's complete input from the seed, for conns
// closed-loop connections. The same arguments always yield the same
// statements.
func newPlan(w *workload, seed int64, seconds, conns int) *plan {
	p := &plan{w: w}
	r := rand.New(rand.NewSource(seed))
	p.data.kOf = make([][]int64, w.tables)
	p.data.byK = make([]map[int64][]int64, w.tables)
	for t := 0; t < w.tables; t++ {
		name := tableName(w, t)
		p.schema = append(p.schema,
			fmt.Sprintf("CREATE TABLE %s (id INT PRIMARY KEY, k INT, v TEXT)", name),
			fmt.Sprintf("CREATE INDEX %s_k ON %s (k)", name, name))
		kOf := make([]int64, w.rows+1)
		byK := make(map[int64][]int64)
		var stmts []string
		var sb strings.Builder
		for id := 1; id <= w.rows; id++ {
			if (id-1)%preloadBatch == 0 {
				sb.Reset()
				fmt.Fprintf(&sb, "INSERT INTO %s (id, k, v) VALUES ", name)
			} else {
				sb.WriteString(", ")
			}
			k := r.Int63n(w.kRange)
			kOf[id] = k
			byK[k] = append(byK[k], int64(id))
			fmt.Fprintf(&sb, "(%d, %d, '%s')", id, k, value(r, w.valueLen))
			if id%preloadBatch == 0 || id == w.rows {
				stmts = append(stmts, sb.String())
			}
		}
		p.data.kOf[t], p.data.byK[t] = kOf, byK
		p.preload = append(p.preload, stmts)
	}
	perConn := w.opsPerSecond * seconds / conns
	for c := 0; c < conns; c++ {
		g := newGen(w, seed, c)
		p.warm = append(p.warm, g.stream(w.warmup))
		p.measured = append(p.measured, g.stream(perConn))
	}
	return p
}

const (
	maxRounds    = 9
	roundSamples = 1050 // a p99 needs 1,000 samples to leave 10 beyond it; 5% spare for failed operations
)

// rounds is how many consecutive rounds the measured phase splits
// into: the most, up to maxRounds, that leave every round at least
// roundSamples reads and roundSamples writes.
func (p *plan) rounds() int {
	for n := maxRounds; n > 1; n-- {
		ok := true
		for r := 0; r < n && ok; r++ {
			var reads, writes int
			for _, ops := range p.measured {
				for _, o := range ops[len(ops)*r/n : len(ops)*(r+1)/n] {
					if o.class == classRead {
						reads++
					} else {
						writes++
					}
				}
			}
			ok = reads >= roundSamples && writes >= roundSamples
		}
		if ok {
			return n
		}
	}
	return 1
}

// gen is one connection's operation generator.
type gen struct {
	w    *workload
	conn int
	r    *rand.Rand
	zipf *rand.Zipf
	// inserted counts the rows this connection's transactions insert,
	// so every connection inserts fresh ids from its own range.
	inserted int64
}

func newGen(w *workload, seed int64, conn int) *gen {
	r := rand.New(rand.NewSource(seed*7919 + int64(conn) + 1))
	return &gen{w: w, conn: conn, r: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(w.rows-1))}
}

func (g *gen) stream(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.w.next(g)
	}
	return ops
}

// hotKey draws a Zipf-skewed preloaded id. The rank is scattered over
// the id space so hot rows do not share leaf pages.
func (g *gen) hotKey() int64 {
	rank := int64(g.zipf.Uint64())
	return (rank*7919)%int64(g.w.rows) + 1
}

func (g *gen) uniformKey() int64 { return g.r.Int63n(int64(g.w.rows)) + 1 }

func (g *gen) pointRead(t int, key int64) op {
	return op{class: classRead, check: checkPoint, table: t, a: key,
		stmts: []string{fmt.Sprintf("SELECT id, k, v FROM %s WHERE id = %d", tableName(g.w, t), key)}}
}

func (g *gen) update(t int, key int64) string {
	return fmt.Sprintf("UPDATE %s SET v = '%s' WHERE id = %d", tableName(g.w, t), value(g.r, g.w.valueLen), key)
}

func nextPointDurable(g *gen) op {
	t := g.r.Intn(g.w.tables)
	if g.r.Intn(100) < 5 {
		return op{class: classWrite, check: checkWrite, table: t, stmts: []string{g.update(t, g.hotKey())}}
	}
	return g.pointRead(t, g.hotKey())
}

func nextTxnEncrypted(g *gen) op {
	if g.r.Intn(100) < 20 {
		return g.pointRead(g.r.Intn(g.w.tables), g.hotKey())
	}
	stmts := []string{"BEGIN"}
	for i := 0; i < 4; i++ {
		stmts = append(stmts, g.update(g.r.Intn(g.w.tables), g.hotKey()))
	}
	g.inserted++
	id := int64(txnInsertBase)*int64(g.conn+1) + g.inserted
	t := g.r.Intn(g.w.tables)
	stmts = append(stmts,
		fmt.Sprintf("INSERT INTO %s (id, k, v) VALUES (%d, %d, '%s')", tableName(g.w, t), id, g.r.Int63n(g.w.kRange), value(g.r, g.w.valueLen)),
		"COMMIT")
	return op{class: classWrite, check: checkWrite, stmts: stmts}
}

// scanSpan is the row count of a scan-evict range SELECT.
const scanSpan = 200

// topN is the LIMIT of a scan-evict TopN query.
const topN = 10

func nextScanEvict(g *gen) op {
	name := tableName(g.w, 0)
	rows := int64(g.w.rows)
	switch x := g.r.Intn(100); {
	case x < 30:
		width := g.r.Int63n(2000) + 1
		lo := g.r.Int63n(rows-width+1) + 1
		hi := lo + width - 1
		return op{class: classRead, check: checkCount, a: lo, b: hi,
			stmts: []string{fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE id BETWEEN %d AND %d", name, lo, hi)}}
	case x < 60:
		lo := g.r.Int63n(rows-scanSpan+1) + 1
		hi := lo + scanSpan - 1
		return op{class: classRead, check: checkRange, a: lo, b: hi,
			stmts: []string{fmt.Sprintf("SELECT id, k, v FROM %s WHERE id BETWEEN %d AND %d", name, lo, hi)}}
	case x < 90:
		k := g.r.Int63n(g.w.kRange)
		return op{class: classRead, check: checkTopN, a: k, b: topN,
			stmts: []string{fmt.Sprintf("SELECT id, k, v FROM %s WHERE k = %d ORDER BY id LIMIT %d", name, k, topN)}}
	default:
		return op{class: classWrite, check: checkWrite, stmts: []string{g.update(0, g.uniformKey())}}
	}
}

const hexDigits = "0123456789abcdef"

// value returns a fresh v of length n: 'v' then hex digits.
func value(r *rand.Rand, n int) string {
	b := make([]byte, n)
	b[0] = 'v'
	var x uint64
	for i := 1; i < n; i++ {
		if (i-1)%16 == 0 {
			x = r.Uint64()
		}
		b[i] = hexDigits[x&15]
		x >>= 4
	}
	return string(b)
}

func validValue(w *workload, v sqlparse.Value) bool {
	if v.IsInt || len(v.Str) != w.valueLen || v.Str[0] != 'v' {
		return false
	}
	for i := 1; i < len(v.Str); i++ {
		if strings.IndexByte(hexDigits, v.Str[i]) < 0 {
			return false
		}
	}
	return true
}

// checkRow validates one (id, k, v) row of a preloaded id against the
// dataset.
func (p *plan) checkRow(t int, row []sqlparse.Value) error {
	if len(row) != 3 || !row[0].IsInt || !row[1].IsInt {
		return fmt.Errorf("row %v does not have the (id, k, v) shape", row)
	}
	id := row[0].Int
	if id < 1 || id > int64(p.w.rows) {
		return fmt.Errorf("row id %d outside the preloaded range", id)
	}
	if k := p.data.kOf[t][id]; row[1].Int != k {
		return fmt.Errorf("row %d has k=%d, preloaded k=%d", id, row[1].Int, k)
	}
	if !validValue(p.w, row[2]) {
		return fmt.Errorf("row %d has a malformed v %q", id, row[2].Str)
	}
	return nil
}
