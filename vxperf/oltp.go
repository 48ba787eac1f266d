package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	vertexica "repro"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/wire"
)

const (
	clients = 2
	// insertsPerSecond fixes oltp-write's insert count from --seconds
	// alone, so both sides of a comparison write and replay the same
	// WAL length whatever their speed.
	insertsPerSecond = 2000
	warmInserts      = 200
	warmReads        = 40 // per client: 30 lookups, 10 joins
	recoverReps      = 5
	// traceBlock alternates traced and untraced stretches of a traced
	// run, so drift lands on both sides of bench.trace_overhead_pct.
	traceBlock        = 500 * time.Millisecond
	traceInsertBlock  = 500
	resultBytesSample = 8 // every n-th traced lookup is re-encoded
)

// oltpEnv is one OLTP run: the engine behind an in-process server on
// loopback, and the shared progress of the insert stream.
type oltpEnv struct {
	o     options
	write bool
	gd    *graphData
	eng   *vertexica.Engine
	dir   string
	srv   *server.Server
	ins   *insertStream

	start        time.Time
	issued       atomic.Int64 // inserts sent
	acked        atomic.Int64 // insert prefix acknowledged
	ackedOK      []bool       // per insert; written by the writer only
	writerDone   atomic.Bool
	writerWindow time.Duration
}

// opStats is one client's record of the window.
type opStats struct {
	lat         map[bool]map[string]*series // by traced block, op kind
	server      map[string][]float64        // traced requests: server-side ms
	wire        map[string][]float64        // traced requests: client minus server ms
	resultBytes []float64
	attempted   int64
	failed      int64
	errs        []error
}

func newOpStats() *opStats {
	return &opStats{
		lat:    map[bool]map[string]*series{false: {}, true: {}},
		server: map[string][]float64{},
		wire:   map[string][]float64{},
	}
}

func (s *opStats) record(op string, d time.Duration, err error, traced bool, server time.Duration, end time.Duration) {
	s.attempted++
	v := ms(d)
	if err != nil {
		// A failed or refused request misses every latency limit.
		s.failed++
		v = math.Inf(1)
	}
	s.series(traced, op).add(v, end)
	if traced && err == nil && server > 0 {
		s.server[op] = append(s.server[op], ms(server))
		s.wire[op] = append(s.wire[op], v-ms(server))
	}
}

func (s *opStats) series(traced bool, op string) *series {
	if s.lat[traced][op] == nil {
		s.lat[traced][op] = &series{}
	}
	return s.lat[traced][op]
}

func (s *opStats) checkErr(err error) {
	if err != nil {
		s.errs = append(s.errs, err)
	}
}

// setupOLTP generates the graph and loads the tables, in memory or
// (write) in a fresh persistent engine that is then checkpointed.
func setupOLTP(o options, write bool) (env *oltpEnv, gen, load, ckpt time.Duration, err error) {
	env = &oltpEnv{o: o, write: write}
	t0 := time.Now()
	env.gd = generate(o.Seed, o.Nodes)
	t1 := time.Now()
	if write {
		if env.dir, err = os.MkdirTemp(o.TmpDir, "oltp-write-"); err != nil {
			return nil, 0, 0, 0, err
		}
		if env.eng, err = vertexica.Open(env.dir); err != nil {
			os.RemoveAll(env.dir)
			return nil, 0, 0, 0, err
		}
	} else {
		env.eng = vertexica.New()
	}
	if err = loadTables(env.eng.DB(), env.gd); err != nil {
		env.close()
		return nil, 0, 0, 0, err
	}
	t2 := time.Now()
	if write {
		if err = env.eng.Checkpoint(); err != nil {
			env.close()
			return nil, 0, 0, 0, err
		}
	}
	return env, t1.Sub(t0), t2.Sub(t1), time.Since(t2), nil
}

// close releases the engine and removes a persistent engine's files.
func (env *oltpEnv) close() {
	env.eng.Close()
	if env.dir != "" {
		os.RemoveAll(env.dir)
	}
}

func runOLTP(o options, write bool) (*result, error) {
	name := wOLTPRead
	if write {
		name = wOLTPWrite
	}
	r := newResult(name)
	var (
		env                  *oltpEnv
		setup, gen, ld, ckpt []float64
	)
	harness := harnessHeapMB(o)
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
			env = nil
		}
		runtime.GC()
		t0 := time.Now()
		e, g, l, c, err := setupOLTP(o, write)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		env = e
		setup = append(setup, time.Since(t0).Seconds())
		gen = append(gen, g.Seconds())
		ld = append(ld, l.Seconds())
		ckpt = append(ckpt, c.Seconds())
	}
	defer env.close()
	r.Metrics["setup_s"] = median(setup)
	r.Metrics["live_heap_mb"] = liveHeapMB() - harness
	if o.Trace {
		r.Metrics["dataset.generate_s"] = median(gen)
		r.Metrics["storage.load_s"] = median(ld)
		if write {
			r.Metrics["engine.checkpoint_s"] = median(ckpt)
		}
	}
	baseRows := int64(len(env.gd.ds.Edges))
	var setupBytes int64
	if write {
		env.ins = newInsertStream(o.Seed, warmInserts+insertsPerSecond*int(o.Window/time.Second), o.Nodes)
		env.ackedOK = make([]bool, len(env.ins.src))
		size, err := dirSize(env.dir)
		if err != nil {
			return nil, err
		}
		setupBytes = size
		if o.Trace {
			r.Metrics["storage.snapshot_bytes_per_row"] = float64(size) / float64(baseRows+env.gd.ds.Nodes)
		}
	}

	env.srv = server.New(env.eng, server.Config{})
	if err := env.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- env.srv.Serve() }()
	stopServer := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		env.srv.Shutdown(ctx)
		<-serveDone
	}
	stats, window, err := env.runClients(r)
	if err != nil {
		stopServer()
		return nil, err
	}
	if o.Trace {
		if err := env.replay(r); err != nil {
			stopServer()
			return nil, err
		}
	}
	stopServer()

	all := newOpStats()
	for _, s := range stats {
		r.Attempted += s.attempted
		r.Failed += s.failed
		for _, e := range s.errs {
			r.check(e)
		}
		for t, m := range s.lat {
			for k, v := range m {
				all.series(t, k).merge(v)
			}
		}
		for k, v := range s.server {
			all.server[k] = append(all.server[k], v...)
		}
		for k, v := range s.wire {
			all.wire[k] = append(all.wire[k], v...)
		}
		all.resultBytes = append(all.resultBytes, s.resultBytes...)
	}
	if !o.Trace {
		// An untraced run has no traced blocks. Tails are medians
		// over sub-windows, so a burst of outside load in part
		// of the window moves them less.
		for _, op := range []string{"lookup", "hop1", "insert"} {
			if sr := all.lat[false][op]; sr != nil {
				r.Metrics[op+"_p50_ms"] = quantile(sr.ms, 0.5)
				r.Metrics[op+"_p90_ms"] = sr.tail(0.9, window)
			}
		}
	} else {
		for _, op := range []string{"lookup", "hop1", "insert"} {
			if sr := all.lat[true][op]; sr != nil {
				r.Metrics["client."+op+"_ms"] = median(sr.ms)
			}
			if len(all.server[op]) > 0 {
				r.Metrics["server."+op+"_ms"] = median(all.server[op])
				r.Metrics["wire."+op+"_ms"] = median(all.wire[op])
			}
		}
		var sum float64
		for _, b := range all.resultBytes {
			sum += b
		}
		if n := len(all.resultBytes); n > 0 {
			r.Metrics["wire.lookup_result_bytes"] = sum / float64(n)
		}
		op := "lookup"
		if write {
			op = "insert"
		}
		r.Metrics["bench.trace_overhead_pct"] = (median(all.lat[true][op].ms)/median(all.lat[false][op].ms) - 1) * 100
	}
	if !write {
		return r, nil
	}
	return r, env.recover(r, baseRows, setupBytes)
}

// oltpClient is one wire connection with its prepared statements.
type oltpClient struct {
	env                  *oltpEnv
	conn                 *client.Conn
	lookup, hop1, insert *client.Stmt
	keys                 *keyStream
	st                   *opStats
}

func (env *oltpEnv) dial(ctx context.Context, id int) (*oltpClient, error) {
	conn, err := client.DialContext(ctx, env.srv.Addr())
	if err != nil {
		return nil, err
	}
	c := &oltpClient{env: env, conn: conn, keys: newKeyStream(env.o.Seed, id, env.o.Nodes), st: newOpStats()}
	for _, p := range []struct {
		dst  **client.Stmt
		text string
	}{{&c.lookup, lookupSQL}, {&c.hop1, hop1SQL}, {&c.insert, insertSQL}} {
		if *p.dst, err = conn.Prepare(ctx, p.text); err != nil {
			conn.Close()
			return nil, fmt.Errorf("prepare %q: %w", p.text, err)
		}
	}
	return c, nil
}

// runClients warms up both clients, then runs the measured window:
// two readers until the window ends (oltp-read), or client 0 inserting
// its fixed count while client 1 reads (oltp-write).
func (env *oltpEnv) runClients(r *result) ([]*opStats, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), env.o.Window+120*time.Second)
	defer cancel()
	cs := make([]*oltpClient, clients)
	for i := range cs {
		c, err := env.dial(ctx, i)
		if err != nil {
			for _, d := range cs[:i] {
				d.conn.Close()
			}
			return nil, 0, err
		}
		cs[i] = c
	}
	defer func() {
		for _, c := range cs {
			c.conn.Close()
		}
	}()

	// Warm-up outside the window: plan-cache fill, first executions
	// and, on oltp-write, the first WAL appends.
	for _, c := range cs {
		for i := 0; i < warmReads; i++ {
			c.read(ctx, false)
		}
	}
	if env.write {
		for i := 0; i < warmInserts; i++ {
			cs[0].doInsert(ctx, i, false)
		}
	}
	for _, c := range cs {
		if c.st.failed > 0 || len(c.st.errs) > 0 {
			return nil, 0, fmt.Errorf("warm-up: %d failed requests, checks: %v", c.st.failed, c.st.errs)
		}
		c.st = newOpStats()
	}

	db := env.eng.DB()
	plans0 := db.PreparedStats()
	fsyncs, synced := db.Stats().Counter("wal.fsyncs"), db.Stats().Counter("wal.synced_records")
	fsyncs0, synced0 := fsyncs.Load(), synced.Load()
	env.eng.WorkerBudget().ResetHighWater()
	mem0 := readMem()

	env.start = time.Now()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *oltpClient) {
			defer wg.Done()
			if env.write && i == 0 {
				c.writeLoop(ctx)
				return
			}
			c.readLoop(ctx)
		}(i, c)
	}
	wg.Wait()
	window := time.Since(env.start)
	if env.write {
		window = env.writerWindow
	}

	out := make([]*opStats, len(cs))
	var requests int64
	for i, c := range cs {
		out[i] = c.st
		requests += c.st.attempted
	}
	if env.o.Trace {
		plans := db.PreparedStats()
		if hits, misses := plans.Hits-plans0.Hits, plans.Misses-plans0.Misses; hits+misses > 0 {
			r.Metrics["engine.plan_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		r.Metrics["sched.budget_high_water"] = float64(env.eng.WorkerBudget().HighWater())
		r.Metrics["runtime.gc_cycles"] = diffMem(mem0, readMem()).GCs / float64(requests) * 1000
		if f := fsyncs.Load() - fsyncs0; f > 0 {
			r.Metrics["engine.wal_fsyncs"] = float64(f)
			r.Metrics["engine.wal_records_per_fsync"] = float64(synced.Load()-synced0) / float64(f)
		}
	}
	return out, window, nil
}

func (env *oltpEnv) traced(block int) bool { return env.o.Trace && block%2 == 1 }

func (c *oltpClient) readLoop(ctx context.Context) {
	env := c.env
	for {
		if env.write {
			if env.writerDone.Load() {
				return
			}
		} else if time.Since(env.start) >= env.o.Window {
			return
		}
		c.read(ctx, env.traced(int(time.Since(env.start)/traceBlock)))
	}
}

func (c *oltpClient) writeLoop(ctx context.Context) {
	env := c.env
	defer env.writerDone.Store(true)
	start := time.Now()
	for i := warmInserts; i < len(env.ins.src); i++ {
		c.doInsert(ctx, i, env.traced((i-warmInserts)/traceInsertBlock))
	}
	env.writerWindow = time.Since(start)
}

// read runs the next request of the client's key stream and checks its
// result.
func (c *oltpClient) read(ctx context.Context, traced bool) {
	env := c.env
	key, hop1 := c.keys.next()
	arg := storage.Int64(key)
	acked := int(env.acked.Load())
	stmt, op := c.lookup, "lookup"
	if hop1 {
		stmt, op = c.hop1, "hop1"
	}
	t0 := time.Now()
	rows, err := stmt.Query(ctx, arg)
	d := time.Since(t0)
	issued := int(env.issued.Load())
	var server time.Duration
	if err == nil && traced {
		server = rows.ServerTime()
	}
	c.st.record(op, d, err, traced, server, time.Since(env.start))
	if err != nil {
		return
	}
	if hop1 {
		got := make([]string, rows.Len())
		for i := range got {
			got[i] = rows.Value(i, 0).S
		}
		c.st.checkErr(env.gd.checkHop1(key, got))
		return
	}
	got := make([]int64, rows.Len())
	for i := range got {
		got[i] = rows.Value(i, 0).I
	}
	c.st.checkErr(env.gd.checkLookup(key, got, env.ins, acked, issued))
	if traced && len(c.st.lat[true]["lookup"].ms)%resultBytesSample == 0 {
		if b, err := rows.Materialize(); err == nil {
			var buf wire.Buffer
			if err := wire.AppendBatch(&buf, b); err == nil {
				c.st.resultBytes = append(c.st.resultBytes, float64(len(buf.B)))
			}
		}
	}
}

// doInsert sends insert i of the stream. A traced insert's server-side
// time is read from the engine's trace ring, matched by its statement
// text (the client's Exec does not surface the Done trailer).
func (c *oltpClient) doInsert(ctx context.Context, i int, traced bool) {
	env := c.env
	args := []storage.Value{storage.Int64(env.ins.src[i]), storage.Int64(insertBase + int64(i))}
	env.issued.Store(int64(i + 1))
	t0 := time.Now()
	n, err := c.insert.Exec(ctx, args...)
	d := time.Since(t0)
	if err == nil && n != 1 {
		err = fmt.Errorf("insert %d: %d rows affected", i, n)
	}
	if err == nil {
		env.ackedOK[i] = true
		if env.acked.Load() == int64(i) {
			env.acked.Store(int64(i + 1))
		}
	}
	var server time.Duration
	if err == nil && traced {
		text, serr := sql.SubstituteParams(insertSQL, args)
		if serr == nil {
			for _, tc := range env.eng.DB().Tracer().Recent() {
				if tc.Text() == text {
					server = time.Duration(tc.TotalNs())
					break
				}
			}
		}
	}
	c.st.record("insert", d, err, traced, server, time.Since(env.start))
}

// recover closes the engine, reopens it recoverReps times timing each
// recovery (snapshot load plus WAL replay of the fixed insert stream),
// and checks the last reopened engine: every acknowledged insert is
// there, and the row count is the loaded rows plus the acknowledged.
func (env *oltpEnv) recover(r *result, baseRows, setupBytes int64) error {
	if err := env.eng.Close(); err != nil {
		return fmt.Errorf("close before recovery: %w", err)
	}
	acked := int64(countTrue(env.ackedOK))
	if env.o.Trace {
		size, err := dirSize(env.dir)
		if err != nil {
			return err
		}
		r.Metrics["storage.wal_bytes_per_insert"] = float64(size-setupBytes) / float64(acked)
	}
	var times []float64
	for i := 0; i < recoverReps; i++ {
		runtime.GC()
		t0 := time.Now()
		eng, err := vertexica.Open(env.dir)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		env.eng = eng
		if i < recoverReps-1 {
			if err := eng.Close(); err != nil {
				return err
			}
		}
	}
	r.Metrics["recover_s"] = median(times)
	r.check(checkRecovered(env.eng, env.ins, env.ackedOK, baseRows, acked))
	return nil
}

func checkRecovered(eng *vertexica.Engine, ins *insertStream, ackedOK []bool, baseRows, acked int64) error {
	db := eng.DB()
	v, err := db.QueryScalar("SELECT COUNT(*) FROM edges")
	if err != nil {
		return fmt.Errorf("recovered count: %w", err)
	}
	if v.I != baseRows+acked {
		return fmt.Errorf("recovered %d edge rows, want %d loaded + %d acknowledged", v.I, baseRows, acked)
	}
	rows, err := db.Query(fmt.Sprintf("SELECT src, dst FROM edges WHERE dst >= %d", insertBase))
	if err != nil {
		return fmt.Errorf("recovered inserts: %w", err)
	}
	seen := make([]bool, len(ackedOK))
	for i := 0; i < rows.Len(); i++ {
		src, idx := rows.Value(i, 0).I, rows.Value(i, 1).I-insertBase
		if idx >= int64(len(ackedOK)) || !ackedOK[idx] || ins.src[idx] != src || seen[idx] {
			return fmt.Errorf("recovered unexpected row (%d, %d)", src, idx+insertBase)
		}
		seen[idx] = true
	}
	for i, ok := range seen {
		if ackedOK[i] && !ok {
			return fmt.Errorf("acknowledged insert %d (%d, %d) lost in recovery", i, ins.src[i], insertBase+int64(i))
		}
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
