package client_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	vertexica "repro"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// startSeededServer boots a server over an engine with a seeded table
// of n rows (id 0..n-1, w = id*0.5).
func startSeededServer(t *testing.T, n int) string {
	addr, _ := startSeededServerEng(t, n)
	return addr
}

func startSeededServerEng(t *testing.T, n int) (string, *vertexica.Engine) {
	t.Helper()
	eng := vertexica.New()
	if _, err := eng.DB().Exec("CREATE TABLE st (id INTEGER NOT NULL, w DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	tb, err := eng.DB().Catalog().Get("st")
	if err != nil {
		t.Fatal(err)
	}
	b := storage.NewBatch(tb.Schema())
	for i := 0; i < n; i++ {
		if err := b.AppendRow(storage.Int64(int64(i)), storage.Float64(float64(i)*0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Config{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return srv.Addr(), eng
}

// TestQueryStreamMatchesMaterialized drains a client-side stream batch
// by batch and asserts it is byte-identical to the materialized Query
// result for the same statement.
func TestQueryStreamMatchesMaterialized(t *testing.T) {
	const n = 20000
	addr := startSeededServer(t, n)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const q = "SELECT id, w FROM st WHERE w >= 0.0"

	want, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var batches []*storage.Batch
	for {
		b, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches = append(batches, b)
	}
	if len(batches) < 2 {
		t.Fatalf("stream arrived in %d batch(es); expected several for %d rows", len(batches), n)
	}
	got, err := storage.ConcatBatches(rows.Schema(), batches)
	if err != nil {
		t.Fatal(err)
	}
	if !wire.EqualBatches(got, want.Data) {
		t.Fatal("streamed result differs from materialized result")
	}
	// The connection slot is free again.
	if _, err := c.Query(ctx, "SELECT COUNT(*) FROM st"); err != nil {
		t.Fatalf("statement after drained stream: %v", err)
	}
}

// TestQueryStreamCloseEarlyFreesConnection closes a stream after one
// batch; the cancel must reach the server and the connection must be
// usable for the next statement.
func TestQueryStreamCloseEarlyFreesConnection(t *testing.T) {
	addr := startSeededServer(t, 50000)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	rows, err := c.QueryStream(ctx, "SELECT id, w FROM st")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := rows.Next(); err != nil || b == nil {
		t.Fatalf("first batch: %v %v", b, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	v, err := c.Query(ctx, "SELECT COUNT(*) FROM st")
	if err != nil {
		t.Fatalf("statement after early-closed stream: %v", err)
	}
	if v.Value(0, 0).I != 50000 {
		t.Fatalf("count %d after early close, want 50000", v.Value(0, 0).I)
	}
}

// TestQueryStreamMaterializeShim asserts the compatibility shim: a
// partially drained stream materializes the remainder, and the
// random-access API works on it.
func TestQueryStreamMaterializeShim(t *testing.T) {
	const n = 20000
	addr := startSeededServer(t, n)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	rows, err := c.QueryStream(ctx, "SELECT id FROM st")
	if err != nil {
		t.Fatal(err)
	}
	first, err := rows.Next()
	if err != nil || first == nil {
		t.Fatalf("first batch: %v %v", first, err)
	}
	rest, err := rows.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if first.Len()+rest.Len() != n {
		t.Fatalf("first %d + materialized rest %d != %d", first.Len(), rest.Len(), n)
	}
	if rows.Len() != rest.Len() {
		t.Fatalf("Len %d, want the materialized remainder %d", rows.Len(), rest.Len())
	}
}

// TestQueryStreamMidStreamError asserts a server-side failure mid-
// stream surfaces as the terminal error and frees the connection.
func TestQueryStreamMidStreamError(t *testing.T) {
	addr, eng := startSeededServerEng(t, 20000)
	// A UDF that detonates deep into the scan: the header and several
	// batches ship before the executor fails.
	err := eng.RegisterUDF(&vertexica.ScalarFunc{
		Name: "boom", MinArgs: 1, MaxArgs: 1,
		ReturnType: func([]storage.Type) (storage.Type, error) { return storage.TypeInt64, nil },
		Eval: func(args []storage.Value) (storage.Value, error) {
			if !args[0].Null && args[0].I == 15000 {
				return storage.Value{}, fmt.Errorf("boom at row %d", args[0].I)
			}
			return args[0], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	rows, err := c.QueryStream(ctx, "SELECT BOOM(id) FROM st")
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for i := 0; i < 10000; i++ {
		b, nerr := rows.Next()
		if nerr != nil {
			sawErr = true
			if !strings.Contains(nerr.Error(), "boom") {
				t.Fatalf("unexpected stream error: %v", nerr)
			}
			break
		}
		if b == nil {
			break
		}
	}
	if !sawErr {
		t.Fatal("mid-stream executor error never surfaced")
	}
	if rows.Err() == nil {
		t.Fatal("Err() lost the terminal error")
	}
	if _, err := c.Query(ctx, "SELECT COUNT(*) FROM st"); err != nil {
		t.Fatalf("statement after errored stream: %v", err)
	}
}

// TestQueryStreamCancelMidDrain cancels the stream's context between
// batches; the statement dies server-side and Next reports the
// cancellation.
func TestQueryStreamCancelMidDrain(t *testing.T) {
	addr := startSeededServer(t, 50000)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	rows, err := c.QueryStream(ctx, "SELECT id, w FROM st")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := rows.Next(); err != nil || b == nil {
		t.Fatalf("first batch: %v %v", b, err)
	}
	cancel()
	sawEnd := false
	for i := 0; i < 100000; i++ {
		b, err := rows.Next()
		if err != nil {
			if err != context.Canceled {
				t.Fatalf("cancelled stream error %v, want context.Canceled", err)
			}
			sawEnd = true
			break
		}
		if b == nil {
			sawEnd = true // drained before the cancel landed
			break
		}
	}
	if !sawEnd {
		t.Fatal("stream neither ended nor errored after cancel")
	}
}
