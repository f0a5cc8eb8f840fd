package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"

	hypermis "repro"
	"repro/internal/durable"
	"repro/internal/service"
)

// compute runs req's workload kind in process on the given workspace,
// pool and degree, as a daemon worker would.
func (w *workload) compute(ctx context.Context, req request, ws *hypermis.Workspace, pool *hypermis.ParPool, par int) (any, error) {
	opts := w.options(req)
	opts.Workspace, opts.ParPool, opts.Parallelism = ws, pool, par
	h := w.insts[req.inst].h
	switch req.kind {
	case service.WorkColor:
		return hypermis.ColorByMISCtx(ctx, h, opts)
	case service.WorkTransversal:
		return hypermis.MinimalTransversalCtx(ctx, h, opts)
	default:
		return hypermis.SolveCtx(ctx, h, opts)
	}
}

// put writes res under key with the store's typed put for its kind.
func put(s *durable.Store, key string, res any) {
	switch r := res.(type) {
	case *hypermis.ColorResult:
		s.PutColor(key, r)
	case *hypermis.TransversalResult:
		s.PutTransversal(key, r)
	case *hypermis.Result:
		s.Put(key, r)
	}
}

// writeFixture solves every pre-written cache-restart rank and writes
// the answers to a fresh durable store in dir, keyed by service.WorkKey
// exactly as the daemon keys them. Each answer's fingerprint goes into
// w.known, so the daemon must later serve the same answer.
func writeFixture(ctx context.Context, w *workload, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type record struct {
		rank int
		key  string
		res  any
	}
	ranks := make(chan int)
	// One slot per solver keeps every solver busy while the writer puts.
	workers := runtime.NumCPU()
	recs := make(chan record, workers)
	var wg sync.WaitGroup
	var errOnce sync.Once
	var solveErr error
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := hypermis.NewWorkspace()
			for rank := range ranks {
				req := rankRequest(w.seed, rank)
				res, err := w.compute(ctx, req, ws, nil, 1)
				if err != nil {
					errOnce.Do(func() { solveErr = fmt.Errorf("fixture rank %d: %w", rank, err) })
					cancel()
					continue
				}
				key := service.WorkKey(req.kind, w.insts[req.inst].h, w.options(req))
				select {
				case recs <- record{rank, key, res}:
				case <-ctx.Done():
				}
			}
		}()
	}
	go func() {
		defer close(ranks)
		for r := range w.fixtureRanks {
			select {
			case ranks <- r:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(recs)
	}()
	// The store's write-behind queue drops records when full, so flush
	// well before it fills.
	n := 0
	for rec := range recs {
		put(store, rec.key, rec.res)
		w.known.m[rec.rank] = resultFingerprint(rec.res)
		if n++; n%128 == 0 {
			store.Flush()
		}
	}
	store.Flush()
	c := store.Counters()
	if err := store.Close(); err != nil {
		return err
	}
	if solveErr != nil {
		return solveErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.Writes != int64(w.fixtureRanks) || c.WriteErrors != 0 {
		return fmt.Errorf("fixture wrote %d of %d records (%d write errors)", c.Writes, w.fixtureRanks, c.WriteErrors)
	}
	return nil
}

// copyDir replaces dst with a copy of src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return os.CopyFS(dst, os.DirFS(src))
}
