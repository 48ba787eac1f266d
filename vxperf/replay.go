package main

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/storage"
)

const (
	replayLookups  = 400
	replayHop1s    = 40
	parseReps      = 200
	explainSamples = 32
	replayStream   = 99 // key stream id, apart from the clients'
)

// replay splits the read path below the wire: a single goroutine runs
// the same prepared statements on an in-process Session of the served
// engine, timing RunStreamBound (bind and open) apart from draining the
// rows, with allocation counts over the whole batch. It also times the
// parser alone and reads rows examined from EXPLAIN ANALYZE.
func (env *oltpEnv) replay(r *result) error {
	ctx := context.Background()
	sess := env.eng.DB().NewSession()
	defer sess.Close()
	for _, q := range []struct {
		op   string
		text string
		n    int
	}{{"lookup", lookupSQL, replayLookups}, {"hop1", hop1SQL, replayHop1s}} {
		keys := newKeyStream(env.o.Seed, replayStream, env.o.Nodes)
		if _, _, err := replayOne(ctx, sess, q.text, 0); err != nil {
			return fmt.Errorf("replay %s: %w", q.op, err)
		}
		var run, drain []float64
		before := readMem()
		for i := 0; i < q.n; i++ {
			key, _ := keys.next()
			rd, dd, err := replayOne(ctx, sess, q.text, key)
			if err != nil {
				return fmt.Errorf("replay %s: %w", q.op, err)
			}
			run = append(run, us(rd))
			drain = append(drain, us(dd))
		}
		md := diffMem(before, readMem())
		r.Metrics["engine."+q.op+"_run_us"] = median(run)
		r.Metrics["exec."+q.op+"_drain_us"] = median(drain)
		r.Metrics["engine."+q.op+"_mallocs"] = md.Mallocs / float64(q.n)
		r.Metrics["engine."+q.op+"_bytes"] = md.AllocBytes / float64(q.n)

		examined, err := rowsExamined(ctx, sess, q.text, newKeyStream(env.o.Seed, replayStream, env.o.Nodes))
		if err != nil {
			return err
		}
		r.Metrics["exec."+q.op+"_rows_examined"] = examined
	}

	var parse []float64
	for _, text := range []string{lookupSQL, hop1SQL, insertSQL} {
		for i := 0; i < parseReps; i++ {
			t0 := time.Now()
			if _, err := sql.Parse(text); err != nil {
				return err
			}
			parse = append(parse, us(time.Since(t0)))
		}
	}
	r.Metrics["sql.parse_us"] = median(parse)
	return nil
}

// replayOne runs one prepared execution and drains it, returning the
// time spent in RunStreamBound and in Rows.Next until end of stream.
func replayOne(ctx context.Context, sess *engine.Session, text string, key int64) (run, drain time.Duration, err error) {
	t0 := time.Now()
	rows, _, err := sess.RunStreamBound(ctx, text, []storage.Value{storage.Int64(key)})
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	defer rows.Close()
	for {
		b, err := rows.Next()
		if err != nil {
			return 0, 0, err
		}
		if b == nil {
			break
		}
	}
	return t1.Sub(t0), time.Since(t1), nil
}

var (
	explainScanRows = regexp.MustCompile(`^\s*Scan .*\(rows=(\d+) `)
	explainExecuted = regexp.MustCompile(`^executed: rows=(\d+) `)
)

// rowsExamined runs EXPLAIN ANALYZE over a fixed sample of keys and
// returns the rows all Scan nodes produced per row returned.
func rowsExamined(ctx context.Context, sess *engine.Session, text string, keys *keyStream) (float64, error) {
	var scanned, returned int64
	for i := 0; i < explainSamples; i++ {
		key, _ := keys.next()
		bound, err := sql.SubstituteParams(text, []storage.Value{storage.Int64(key)})
		if err != nil {
			return 0, err
		}
		s, n, err := explainAnalyze(ctx, sess, bound)
		if err != nil {
			return 0, err
		}
		scanned += s
		returned += n
	}
	if returned == 0 {
		return 0, fmt.Errorf("rows examined: the key sample returned no rows")
	}
	return float64(scanned) / float64(returned), nil
}

func explainAnalyze(ctx context.Context, sess *engine.Session, query string) (scanned, returned int64, err error) {
	rows, _, err := sess.Run(ctx, "EXPLAIN ANALYZE "+query)
	if err != nil {
		return 0, 0, err
	}
	b, err := rows.Materialize()
	if err != nil {
		return 0, 0, err
	}
	sawExecuted := false
	for i := 0; i < b.Len(); i++ {
		line := b.Cols[0].Value(i).S
		if m := explainScanRows.FindStringSubmatch(line); m != nil {
			n, _ := strconv.ParseInt(m[1], 10, 64)
			scanned += n
		} else if m := explainExecuted.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			returned, _ = strconv.ParseInt(m[1], 10, 64)
			sawExecuted = true
		}
	}
	if !sawExecuted || scanned == 0 {
		return 0, 0, fmt.Errorf("EXPLAIN ANALYZE %q: no scan or executed line in %d lines", query, b.Len())
	}
	return scanned, returned, nil
}
