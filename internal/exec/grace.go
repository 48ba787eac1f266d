package exec

import (
	"repro/internal/storage"
)

// Grace hash join: when the build side outgrows the memory grant, both
// inputs are hash-partitioned on the join key into on-disk runs —
// graceParts partitions per level, 4 hash bits each — and each left
// partition is probed against its right partition with a
// partition-sized hash table. A partition that still does not fit
// repartitions on the next 4 bits, up to maxGraceLevels, after which it
// proceeds unreserved (the working floor: a key set so skewed that
// three levels cannot split it would otherwise never run).
//
// Byte-identity with the in-memory join is carried by a row index: each
// left row takes its global input position into the partitions (as the
// run's last column, keeping key indices valid) and into the result
// runs (as the first column). Probing a partition visits left rows in
// ascending index order and emits matches in ascending build order, so
// each result run is index-sorted; a K-way merge by index across the
// result runs reproduces the serial probe output exactly, then strips
// the index column.

const (
	// graceParts is the partition fan-out per level: 4 hash bits.
	graceParts = 16
	// maxGraceLevels caps recursive repartitioning; level 0 is the
	// initial split, deeper levels use successively higher hash bits.
	maxGraceLevels = 3
)

// gracePartOf routes a key hash to its partition at the given level.
func gracePartOf(h uint64, level int) int {
	return int((h >> (4 * uint(level))) % graceParts)
}

func (j *HashJoin) fs() storage.SpillFS {
	if j.FS != nil {
		return j.FS
	}
	return storage.DefaultSpillFS
}

// graceOutSchema is the result-run schema: the row index first, then
// the join's output columns.
func (j *HashJoin) graceOutSchema() storage.Schema {
	cols := make([]storage.ColumnDef, 0, j.out.Len()+1)
	cols = append(cols, storage.Col("__idx", storage.TypeInt64))
	cols = append(cols, j.out.Cols...)
	return storage.NewSchema(cols...)
}

// openGrace runs the partition and probe phases; afterwards Next merges
// the result runs by row index.
func (j *HashJoin) openGrace() error {
	rruns, err := j.partitionRight()
	if err != nil {
		return err
	}
	lruns, err := j.partitionLeft()
	if err != nil {
		for _, r := range rruns {
			r.Close()
		}
		return err
	}
	j.mt.releaseAll()
	var results []*storage.SpillRun
	closeResults := func() {
		for _, r := range results {
			r.Close()
		}
	}
	for k := 0; k < graceParts; k++ {
		if err := j.graceProbe(lruns[k], rruns[k], 1, &results); err != nil {
			for kk := k + 1; kk < graceParts; kk++ {
				lruns[kk].Close()
				rruns[kk].Close()
			}
			closeResults()
			return err
		}
	}
	g, err := newGraceState(results)
	if err != nil {
		closeResults()
		return err
	}
	j.grace = g
	return nil
}

// partitionRight routes the buffered build prefix plus the rest of the
// right stream into level-0 partition runs. NULL-key rows are dropped
// here — they can never match.
func (j *HashJoin) partitionRight() ([graceParts]*storage.SpillRun, error) {
	var zero [graceParts]*storage.SpillRun
	p := gracePartitioner{fs: j.fs(), schema: j.Right.Schema()}
	route := func(b *storage.Batch) error {
		var idxs [graceParts][]int
		for i := 0; i < b.Len(); i++ {
			h, ok := joinKeyOf(b, i, j.RightKeys)
			if !ok {
				continue
			}
			k := gracePartOf(h, 0)
			idxs[k] = append(idxs[k], i)
		}
		for k := 0; k < graceParts; k++ {
			if len(idxs[k]) == 0 {
				continue
			}
			if err := p.write(k, b.Gather(idxs[k])); err != nil {
				return err
			}
		}
		return nil
	}
	fail := func(err error) ([graceParts]*storage.SpillRun, error) {
		p.abort()
		j.Right.Close()
		return zero, err
	}
	pos := 0
	for {
		b := NextChunk(j.rdata, &pos, j.rdata.Len())
		if b == nil {
			break
		}
		if err := route(b); err != nil {
			return fail(err)
		}
	}
	for {
		b, err := j.Right.Next()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		j.buildRows.Add(int64(b.Len()))
		if err := route(b); err != nil {
			return fail(err)
		}
	}
	if err := j.Right.Close(); err != nil {
		p.abort()
		return zero, err
	}
	j.rdata = nil
	j.mt.releaseAll() // the buffered prefix lives on disk now
	return p.finish(&j.stats)
}

// partitionLeft streams the whole left input into level-0 partition
// runs, appending each row's global input index as the last column.
// NULL-key rows of a left join ride partition 0 (they match nothing and
// come back NULL-padded); under an inner join they are dropped.
func (j *HashJoin) partitionLeft() ([graceParts]*storage.SpillRun, error) {
	var zero [graceParts]*storage.SpillRun
	ls := j.Left.Schema()
	cols := make([]storage.ColumnDef, 0, ls.Len()+1)
	cols = append(cols, ls.Cols...)
	cols = append(cols, storage.Col("__idx", storage.TypeInt64))
	ext := storage.NewSchema(cols...)
	p := gracePartitioner{fs: j.fs(), schema: ext}
	if err := j.Left.Open(); err != nil {
		p.abort()
		return zero, err
	}
	fail := func(err error) ([graceParts]*storage.SpillRun, error) {
		p.abort()
		j.Left.Close()
		return zero, err
	}
	var pend [graceParts]*storage.Batch
	idx := int64(0)
	for {
		b, err := j.Left.Next()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		j.probeRows.Add(int64(b.Len()))
		for i := 0; i < b.Len(); i++ {
			h, ok := joinKeyOf(b, i, j.LeftKeys)
			k := 0
			if ok {
				k = gracePartOf(h, 0)
			} else if j.Type != LeftJoin {
				idx++
				continue
			}
			if pend[k] == nil {
				pend[k] = storage.NewBatch(ext)
			}
			row := append(b.Row(i), storage.Int64(idx))
			idx++
			if err := pend[k].AppendRow(row...); err != nil {
				return fail(err)
			}
			if pend[k].Len() >= storage.BatchSize {
				if err := p.write(k, pend[k]); err != nil {
					return fail(err)
				}
				pend[k] = nil
			}
		}
	}
	if err := j.Left.Close(); err != nil {
		p.abort()
		return zero, err
	}
	for k := 0; k < graceParts; k++ {
		if pend[k] != nil && pend[k].Len() > 0 {
			if err := p.write(k, pend[k]); err != nil {
				p.abort()
				return zero, err
			}
		}
	}
	return p.finish(&j.stats)
}

// gracePartitioner fans batches out to one lazily created run writer
// per partition.
type gracePartitioner struct {
	fs     storage.SpillFS
	schema storage.Schema
	ws     [graceParts]*storage.RunWriter
}

func (p *gracePartitioner) write(k int, b *storage.Batch) error {
	w := p.ws[k]
	if w == nil {
		var err error
		w, err = storage.NewRunWriter(p.fs, p.schema)
		if err != nil {
			return err
		}
		p.ws[k] = w
	}
	return w.Write(b)
}

func (p *gracePartitioner) abort() {
	for _, w := range p.ws {
		if w != nil {
			w.Abort()
		}
	}
}

func (p *gracePartitioner) finish(stats *OpStats) ([graceParts]*storage.SpillRun, error) {
	var runs [graceParts]*storage.SpillRun
	for k, w := range p.ws {
		if w == nil {
			continue
		}
		run, err := w.Finish()
		if err != nil {
			for _, r := range runs {
				r.Close()
			}
			for _, w2 := range p.ws[k:] {
				if w2 != nil {
					w2.Abort()
				}
			}
			return runs, err
		}
		stats.spilled(run)
		runs[k] = run
	}
	return runs, nil
}

// graceProbe joins one left partition against its right partition,
// appending an index-sorted result run to results. Both input runs are
// closed before it returns. A right partition that does not fit the
// grant recurses one level; at the deepest level it proceeds
// unreserved.
func (j *HashJoin) graceProbe(lrun, rrun *storage.SpillRun, level int, results *[]*storage.SpillRun) error {
	defer lrun.Close()
	defer rrun.Close()
	if lrun == nil || lrun.Rows() == 0 {
		return nil // no probe rows: neither matches nor pads can exist
	}
	mt := memTracker{mem: j.Mem}
	defer mt.releaseAll()
	var rpart *storage.Batch
	if rrun != nil {
		pending := make([]*storage.Batch, 0, rrun.Frames())
		rr := rrun.Reader()
		for {
			b, err := rr.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if !mt.reserve(storage.BatchBytes(b)) && level < maxGraceLevels {
				mt.releaseAll()
				return j.graceRecurse(lrun, rrun, level, results)
			}
			pending = append(pending, b)
		}
		var err error
		if rpart, err = storage.ConcatBatches(rrun.Schema(), pending); err != nil {
			return err
		}
	}
	built := make(map[uint64][]int)
	if rpart != nil {
		for i := 0; i < rpart.Len(); i++ {
			h, ok := joinKeyOf(rpart, i, j.RightKeys)
			if !ok {
				continue
			}
			built[h] = append(built[h], i)
		}
	}
	oschema := j.graceOutSchema()
	w, err := storage.NewRunWriter(j.fs(), oschema)
	if err != nil {
		return err
	}
	out := storage.NewBatch(oschema)
	flush := func(force bool) error {
		if out.Len() == 0 || (!force && out.Len() < storage.BatchSize) {
			return nil
		}
		if err := w.Write(out); err != nil {
			return err
		}
		out = storage.NewBatch(oschema)
		return nil
	}
	ls := j.Left.Schema()
	lr := lrun.Reader()
	for {
		b, err := lr.Next()
		if err != nil {
			w.Abort()
			return err
		}
		if b == nil {
			break
		}
		nl := len(b.Cols) - 1
		core := &storage.Batch{Schema: ls, Cols: b.Cols[:nl]}
		idxs := b.Cols[nl].(*storage.Int64Column).Int64s()
		for i := 0; i < b.Len(); i++ {
			matched := false
			if h, ok := joinKeyOf(core, i, j.LeftKeys); ok {
				var lrow []storage.Value
				for _, ri := range built[h] {
					if !joinKeysEqual(core, i, rpart, ri, j.LeftKeys, j.RightKeys) {
						continue
					}
					if lrow == nil {
						lrow = core.Row(i)
					}
					combined := append(append([]storage.Value{}, lrow...), rpart.Row(ri)...)
					if j.Residual != nil {
						keep, err := evalPredOnRow(j.out, j.Residual, combined)
						if err != nil {
							w.Abort()
							return err
						}
						if !keep {
							continue
						}
					}
					matched = true
					row := append([]storage.Value{storage.Int64(idxs[i])}, combined...)
					if err := out.AppendRow(row...); err != nil {
						w.Abort()
						return err
					}
					if err := flush(false); err != nil {
						w.Abort()
						return err
					}
				}
			}
			if !matched && j.Type == LeftJoin {
				row := append([]storage.Value{storage.Int64(idxs[i])}, core.Row(i)...)
				row = append(row, j.rNulls...)
				if err := out.AppendRow(row...); err != nil {
					w.Abort()
					return err
				}
				if err := flush(false); err != nil {
					w.Abort()
					return err
				}
			}
		}
	}
	if err := flush(true); err != nil {
		w.Abort()
		return err
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	if run.Frames() == 0 {
		return run.Close() // nothing matched: drop the empty run
	}
	j.stats.spilled(run)
	*results = append(*results, run)
	return nil
}

// graceRecurse splits both partition runs on the next 4 hash bits and
// probes each sub-pair. The parent runs are closed by graceProbe's
// defers after this returns.
func (j *HashJoin) graceRecurse(lrun, rrun *storage.SpillRun, level int, results *[]*storage.SpillRun) error {
	rsub, err := j.repartitionRun(rrun, level, j.RightKeys, false)
	if err != nil {
		return err
	}
	lsub, err := j.repartitionRun(lrun, level, j.LeftKeys, true)
	if err != nil {
		for _, r := range rsub {
			r.Close()
		}
		return err
	}
	for k := 0; k < graceParts; k++ {
		if err := j.graceProbe(lsub[k], rsub[k], level+1, results); err != nil {
			for kk := k + 1; kk < graceParts; kk++ {
				lsub[kk].Close()
				rsub[kk].Close()
			}
			return err
		}
	}
	return nil
}

// repartitionRun splits a run by the hash bits of the given level. Left
// runs carry their __idx as the last column, so the key indices stay
// valid; their NULL-key rows (left-join pads-to-be) stay in
// sub-partition 0.
func (j *HashJoin) repartitionRun(run *storage.SpillRun, level int, keys []int, isLeft bool) ([graceParts]*storage.SpillRun, error) {
	var zero [graceParts]*storage.SpillRun
	p := gracePartitioner{fs: j.fs(), schema: run.Schema()}
	rr := run.Reader()
	for {
		b, err := rr.Next()
		if err != nil {
			p.abort()
			return zero, err
		}
		if b == nil {
			break
		}
		kb := b
		if isLeft {
			kb = &storage.Batch{Schema: j.Left.Schema(), Cols: b.Cols[:len(b.Cols)-1]}
		}
		var idxs [graceParts][]int
		for i := 0; i < b.Len(); i++ {
			h, ok := joinKeyOf(kb, i, keys)
			k := 0
			if ok {
				k = gracePartOf(h, level)
			} else if !isLeft {
				continue
			}
			idxs[k] = append(idxs[k], i)
		}
		for k := 0; k < graceParts; k++ {
			if len(idxs[k]) == 0 {
				continue
			}
			if err := p.write(k, b.Gather(idxs[k])); err != nil {
				p.abort()
				return zero, err
			}
		}
	}
	return p.finish(&j.stats)
}

// graceState is the K-way merge cursor over the index-sorted result
// runs. Each run's frames stream in one at a time; the merge picks the
// run with the smallest head index (indexes are unique to a run, and a
// left row's several output rows sit consecutively in one run), so
// output rows appear in global left-input order.
type graceState struct {
	runs []*storage.SpillRun
	cur  []*storage.Batch
	pos  []int
	idxs [][]int64
	next []int
}

func newGraceState(runs []*storage.SpillRun) (*graceState, error) {
	g := &graceState{
		runs: runs,
		cur:  make([]*storage.Batch, len(runs)),
		pos:  make([]int, len(runs)),
		idxs: make([][]int64, len(runs)),
		next: make([]int, len(runs)),
	}
	for i := range runs {
		if err := g.load(i); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// load pulls run i's next frame into the cursor (nil at end of run).
func (g *graceState) load(i int) error {
	g.cur[i], g.pos[i] = nil, 0
	if g.next[i] >= g.runs[i].Frames() {
		return nil
	}
	b, err := g.runs[i].ReadFrame(g.next[i])
	if err != nil {
		return err
	}
	g.next[i]++
	g.cur[i] = b
	g.idxs[i] = b.Cols[0].(*storage.Int64Column).Int64s()
	return nil
}

// graceNextBatch serves the next merged batch of the Grace result,
// stripping the index column.
func (j *HashJoin) graceNextBatch() (*storage.Batch, error) {
	g := j.grace
	out := storage.NewBatch(j.out)
	for out.Len() < storage.BatchSize {
		best := -1
		var bestIdx int64
		for r := range g.runs {
			if g.cur[r] == nil {
				continue
			}
			if idx := g.idxs[r][g.pos[r]]; best < 0 || idx < bestIdx {
				best, bestIdx = r, idx
			}
		}
		if best < 0 {
			break
		}
		row := g.cur[best].Row(g.pos[best])
		if err := out.AppendRow(row[1:]...); err != nil {
			return nil, err
		}
		g.pos[best]++
		if g.pos[best] >= g.cur[best].Len() {
			if err := g.load(best); err != nil {
				return nil, err
			}
		}
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}
