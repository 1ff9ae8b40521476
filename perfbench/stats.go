package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 needs at least 1,000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted, refusing
// when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, n-rank, n)
	}
	return sorted[rank-1], nil
}

// median returns the middle value (the mean of the two middle values
// for an even count) of xs, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// host is the record of the machine a run measured on. It explains a
// run; no metric is ever adjusted by it.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	DataDirFS  string `json:"datadir_fs"`
	StealTicks int64  `json:"steal_ticks_measured"`
}

func hostInfo(dataDir string) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		DataDirFS:  fsType(dataDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// stealTicks returns the machine-wide steal time from /proc/stat, in
// clock ticks, or 0 where it cannot be read.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// gcSample is a snapshot of the runtime's GC accounting.
type gcSample struct {
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

func sampleGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	return gcSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), pauses: s[2].Value.Float64Histogram()}
}

// gcDelta accumulates the runtime's GC accounting over a set of
// intervals, each bounded by two samples.
type gcDelta struct {
	gcCPU, totalCPU float64
	counts          []uint64
	buckets         []float64
}

func (d *gcDelta) add(a, b gcSample) {
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	if d.counts == nil {
		d.counts = make([]uint64, len(b.pauses.Counts))
		d.buckets = b.pauses.Buckets
	}
	for i := range d.counts {
		d.counts[i] += b.pauses.Counts[i] - a.pauses.Counts[i]
	}
}

// cpuFrac is the GC's share of the CPU time available in the intervals.
func (d *gcDelta) cpuFrac() float64 { return ratio(d.gcCPU, d.totalCPU) }

// pauseP99ms is the p99 stop-the-world pause in the intervals, in ms.
// It is read off the runtime's histogram, so it is the upper edge of a
// bucket; 0 when there was no pause.
func (d *gcDelta) pauseP99ms() float64 {
	var total uint64
	for _, c := range d.counts {
		total += c
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range d.counts {
		seen += c
		if total > 0 && seen >= want {
			edge := d.buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = d.buckets[i]
			}
			return edge * 1e3
		}
	}
	return 0
}

// heapMB forces a collection and returns the Go heap in use, in MiB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
