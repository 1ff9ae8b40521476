package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"snapdb/internal/vfs"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary. Parent is the id of the span that
// caused it: a client statement's parent is its operation. It is 0 where
// the boundary cannot tell, as for a group-commit fsync that serves
// several operations.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, after measuring.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// record stores a span that started at start and ends now.
func (t *tracer) record(layer string, parent uint64, start time.Time, bytes int64) {
	t.add(span{Parent: parent, Layer: layer, Start: t.ns(start),
		Dur: time.Since(start).Nanoseconds(), Bytes: bytes})
}

// add stores s under the next span id.
func (t *tracer) add(s span) { t.addAs(t.reserve(), s) }

// reserve allocates a span id ahead of the span, so spans it causes can
// name it as their parent before it ends.
func (t *tracer) reserve() uint64 { return t.ids.Add(1) }

// addAs stores s under an id from reserve.
func (t *tracer) addAs(id uint64, s span) {
	s.ID = id
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// window returns the spans of layer that started within [from, to).
func (t *tracer) window(layer string, from, to time.Time) []span {
	lo, hi := t.ns(from), t.ns(to)
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer && s.Start >= lo && s.Start < hi {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// timingFS times and counts every call an engine makes into the FS
// below it. Spans are named <layer>.write, <layer>.read, <layer>.sync
// (file and directory syncs) and <layer>.meta (create, open, rename,
// remove, truncate, whole-file reads).
type timingFS struct {
	inner vfs.FS
	layer string
	tr    *tracer
}

func newTimingFS(inner vfs.FS, layer string, tr *tracer) *timingFS {
	return &timingFS{inner: inner, layer: layer, tr: tr}
}

func (fs *timingFS) meta(start time.Time) { fs.tr.record(fs.layer+".meta", 0, start, 0) }

func (fs *timingFS) Create(name string) (vfs.File, error) {
	start := time.Now()
	f, err := fs.inner.Create(name)
	fs.meta(start)
	if err != nil {
		return nil, err
	}
	return &timingFile{f: f, fs: fs}, nil
}

func (fs *timingFS) Open(name string) (vfs.File, error) {
	start := time.Now()
	f, err := fs.inner.Open(name)
	fs.meta(start)
	if err != nil {
		return nil, err
	}
	return &timingFile{f: f, fs: fs}, nil
}

func (fs *timingFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := fs.inner.ReadFile(name)
	fs.tr.record(fs.layer+".read", 0, start, int64(len(b)))
	return b, err
}

func (fs *timingFS) Rename(oldname, newname string) error {
	start := time.Now()
	err := fs.inner.Rename(oldname, newname)
	fs.meta(start)
	return err
}

func (fs *timingFS) Remove(name string) error {
	start := time.Now()
	err := fs.inner.Remove(name)
	fs.meta(start)
	return err
}

func (fs *timingFS) SyncDir() error {
	start := time.Now()
	err := fs.inner.SyncDir()
	fs.tr.record(fs.layer+".sync", 0, start, 0)
	return err
}

type timingFile struct {
	f  vfs.File
	fs *timingFS
}

func (f *timingFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.f.WriteAt(p, off)
	f.fs.tr.record(f.fs.layer+".write", 0, start, int64(n))
	return n, err
}

func (f *timingFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.f.ReadAt(p, off)
	f.fs.tr.record(f.fs.layer+".read", 0, start, int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.f.Sync()
	f.fs.tr.record(f.fs.layer+".sync", 0, start, 0)
	return err
}

func (f *timingFile) Truncate(size int64) error {
	start := time.Now()
	err := f.f.Truncate(size)
	f.fs.meta(start)
	return err
}

func (f *timingFile) Size() (int64, error) { return f.f.Size() }
func (f *timingFile) Close() error         { return f.f.Close() }

// timingListener hands the server connections that time each request
// from the read that delivers it to the last write of its reply: the
// server's service time, as seen at the socket. The protocol is
// request/reply and the benchmark never pipelines, so the first read
// after a reply starts the next request.
type timingListener struct {
	net.Listener
	tr *tracer
}

func (l *timingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timingConn{Conn: c, tr: l.tr}, nil
}

// timingConn is used by the one server goroutine that handles it, plus
// Close from the server's shutdown path, so its state sits under mu.
type timingConn struct {
	net.Conn
	tr      *tracer
	mu      sync.Mutex
	active  bool // a request has been read and its reply not yet closed off
	start   time.Time
	lastEnd time.Time
	written int64
}

func (c *timingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		if c.active && c.written > 0 {
			c.finishLocked()
		}
		if !c.active {
			c.active, c.start, c.written = true, now, 0
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *timingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.lastEnd = time.Now()
	c.written += int64(n)
	c.mu.Unlock()
	return n, err
}

func (c *timingConn) Close() error {
	c.mu.Lock()
	if c.active && c.written > 0 {
		c.finishLocked()
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

func (c *timingConn) finishLocked() {
	c.tr.add(span{Layer: "server.request", Start: c.tr.ns(c.start),
		Dur: c.lastEnd.Sub(c.start).Nanoseconds(), Bytes: c.written})
	c.active = false
}
