// Package transform performs the paper's code generation for computation
// reuse (§2.2, §3.1): each selected code segment is wrapped in a table
// look-up of the shape of Figure 2(b), and segments with identical input
// variables share one merged hash table with a valid-bit vector (§2.5,
// Table 2).
//
// With tables in profile mode, the same transformation realizes the
// value-set profiling instrumentation of §2.1: probes always miss, the
// body always runs, and the table collects the input census. The
// pipeline itself profiles without rewriting the program (interp.Watch),
// pricing the same instrumentation: Groups gives the table layout and
// HoistedDecls the in-body assignments hoisting leaves.
package transform

import (
	"sort"
	"strings"

	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
	"compreuse/internal/reusetab"
	"compreuse/internal/segment"
)

// TableSpec describes one (possibly merged) reuse table.
type TableSpec struct {
	ID   int
	Name string
	// Segs are the segments sharing this table; a segment's position is
	// its valid-bit index.
	Segs []*segment.Segment
	// KeyBytes is the modeled byte width of the shared input set.
	KeyBytes int
	// OutWords / OutBytes are per-segment output sizes.
	OutWords []int
	OutBytes []int
	// Dep marks a dependence-tracked table: the region probes a
	// depmemo footprint trie instead of a flat-key reusetab. Dep tables
	// are never merged (footprints are per-body read paths), so Segs
	// always has exactly one element.
	Dep bool
}

// DepConfig instantiates a depmemo.Config for this table (Dep only).
func (ts *TableSpec) DepConfig(entries int, profile bool) depmemo.Config {
	return depmemo.Config{
		Name:    ts.Name,
		Entries: entries,
		Profile: profile,
	}
}

// Config instantiates a reusetab.Config for this table.
func (ts *TableSpec) Config(mode reusetab.Mode, entries int, lru bool) reusetab.Config {
	return reusetab.Config{
		Name:     ts.Name,
		Segs:     len(ts.Segs),
		KeyBytes: ts.KeyBytes,
		OutWords: append([]int(nil), ts.OutWords...),
		OutBytes: append([]int(nil), ts.OutBytes...),
		Entries:  entries,
		LRU:      lru,
		Mode:     mode,
	}
}

// Result reports what Apply did.
type Result struct {
	Tables []*TableSpec
	// Regions maps each transformed segment to its region node.
	Regions map[*segment.Segment]*minic.ReuseRegion
}

// Options tunes the transformation.
type Options struct {
	// Merge enables hash-table merging for segments with identical input
	// variables (default on; disable to measure the storage effect).
	NoMerge bool
	// DepSegs selects segments (by name) to transform as dependence-
	// tracked regions: the region declares the trackable location set
	// (whole aggregates, not single elements) and probes a footprint
	// trie. Dep segments never merge.
	DepSegs map[string]bool
}

// Apply wraps the selected segments of prog in ReuseRegions, mutating the
// AST in place, and returns the table layout. The caller instantiates the
// actual tables (reusetab.New) from the specs, choosing mode and size.
func Apply(prog *minic.Program, selected []*segment.Segment, opts Options) *Result {
	res := &Result{Regions: map[*segment.Segment]*minic.ReuseRegion{}}

	// Dependence-tracked segments bypass grouping entirely: a footprint
	// trie is keyed on a body's observed read path, which is never
	// shared across bodies.
	var flat, dep []*segment.Segment
	for _, s := range selected {
		if opts.DepSegs[s.Name] {
			dep = append(dep, s)
		} else {
			flat = append(flat, s)
		}
	}

	for _, segs := range Groups(flat, opts.NoMerge) {
		ts := &TableSpec{
			ID:       len(res.Tables),
			Name:     TableName(segs),
			Segs:     segs,
			KeyBytes: segs[0].KeyBytes,
		}
		for _, s := range segs {
			outWords := 0
			for _, o := range s.Outputs {
				outWords += o.Words()
			}
			ts.OutWords = append(ts.OutWords, outWords)
			ts.OutBytes = append(ts.OutBytes, s.OutBytes)
		}
		res.Tables = append(res.Tables, ts)
		for bit, s := range segs {
			res.Regions[s] = wrap(prog, s, ts.ID, bit, false)
		}
	}

	// Dep tables, one per segment, IDs continuing after the flat tables
	// (the interpreter's table-ID space is shared).
	sort.Slice(dep, func(i, j int) bool { return dep[i].Index < dep[j].Index })
	for _, s := range dep {
		outWords := 0
		for _, o := range s.Outputs {
			outWords += o.Words()
		}
		ts := &TableSpec{
			ID:       len(res.Tables),
			Name:     s.Name,
			Segs:     []*segment.Segment{s},
			KeyBytes: s.KeyBytes,
			OutWords: []int{outWords},
			OutBytes: []int{s.OutBytes},
			Dep:      true,
		}
		res.Tables = append(res.Tables, ts)
		res.Regions[s] = wrap(prog, s, ts.ID, 0, true)
	}
	return res
}

// Groups splits segs into the tables Apply gives them: segments with
// identical input variable lists share one merged table (§2.5) unless
// noMerge. Groups come in table order, each sorted by segment index.
func Groups(segs []*segment.Segment, noMerge bool) [][]*segment.Segment {
	// The key is the identity of the symbol sequence.
	groups := map[string][]*segment.Segment{}
	var order []string
	for _, s := range segs {
		k := inputKey(s)
		if noMerge {
			k = k + "#" + s.Name // unique key: no sharing
		}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	sort.Strings(order)
	out := make([][]*segment.Segment, len(order))
	for i, k := range order {
		g := groups[k]
		sort.Slice(g, func(i, j int) bool { return g[i].Index < g[j].Index })
		out[i] = g
	}
	return out
}

// inputKey canonically identifies a segment's input list. Two segments
// merge only when they key on the same locations in the same order.
func inputKey(s *segment.Segment) string {
	var sb strings.Builder
	for _, in := range s.Inputs {
		// Pointer identity via formatted address would be nondeterministic;
		// name + kind + declaring function is unique within a program for
		// merge purposes (same-name locals of different functions do not
		// merge because their Func differs).
		sb.WriteString(in.Sym.Name)
		sb.WriteByte('/')
		sb.WriteString(in.Sym.Kind.String())
		if in.Sym.Func != nil {
			sb.WriteByte('@')
			sb.WriteString(in.Sym.Func.Name)
		}
		if in.Elem != nil {
			sb.WriteByte('[')
			sb.WriteString(minic.PrintExpr(in.Elem))
			sb.WriteByte(']')
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

// TableName names the table of a group of segments.
func TableName(segs []*segment.Segment) string {
	if len(segs) == 1 {
		return segs[0].Name
	}
	names := make([]string, len(segs))
	for i, s := range segs {
		names[i] = s.Name
	}
	return "merged{" + strings.Join(names, ",") + "}"
}

// HoistedDecls returns the declarations hoistOutputDecls moves out of
// s's body: those of its scalar output locals (and its returned local)
// declared at the top level of the body without a brace list.
func HoistedDecls(s *segment.Segment) []*minic.VarDecl {
	blk, ok := s.Body.(*minic.Block)
	if !ok {
		return nil
	}
	outLocals := map[*minic.Symbol]bool{}
	for _, o := range s.Outputs {
		if o.Sym.Kind == minic.SymLocal && o.Elem == nil {
			outLocals[o.Sym] = true
		}
	}
	if s.RetOut != nil && s.RetOut.Kind == minic.SymLocal {
		outLocals[s.RetOut] = true
	}
	var out []*minic.VarDecl
	for _, st := range blk.Stmts {
		if ds, ok := st.(*minic.DeclStmt); ok {
			for _, d := range ds.Decls {
				if outLocals[d.Sym] && d.InitList == nil {
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// hoistOutputDecls moves declarations of output locals out of the region
// body so that the region's outputs (and a trailing return) are in scope
// outside it. Initializers are preserved by leaving an equivalent
// assignment (or zeroing) in place.
func hoistOutputDecls(prog *minic.Program, s *segment.Segment) []minic.Stmt {
	hoist := map[*minic.VarDecl]bool{}
	for _, d := range HoistedDecls(s) {
		hoist[d] = true
	}
	if len(hoist) == 0 {
		return nil
	}
	blk := s.Body.(*minic.Block)
	var hoisted []minic.Stmt
	var newStmts []minic.Stmt
	for _, st := range blk.Stmts {
		ds, isDecl := st.(*minic.DeclStmt)
		if !isDecl {
			newStmts = append(newStmts, st)
			continue
		}
		var keep []*minic.VarDecl
		for _, d := range ds.Decls {
			if !hoist[d] {
				keep = append(keep, d)
				continue
			}
			init := d.Init
			d.Init = nil
			hoisted = append(hoisted, prog.NewDeclStmt(d))
			// Preserve the initialization (including MiniC's zeroing of
			// uninitialized locals) inside the body.
			if init == nil {
				init = prog.NewIntLit(0)
			}
			newStmts = append(newStmts,
				prog.NewExprStmt(prog.NewAssign(prog.NewIdent(d.Sym), init)))
		}
		if len(keep) > 0 {
			ds.Decls = keep
			newStmts = append(newStmts, ds)
		}
	}
	blk.Stmts = newStmts
	return hoisted
}

// wrap builds the ReuseRegion for s and splices it into the AST.
func wrap(prog *minic.Program, s *segment.Segment, tableID, segBit int, dep bool) *minic.ReuseRegion {
	// For sub-blocks, capture the run's anchor statement before hoisting
	// rewrites the body's statement list.
	var subAnchor minic.Stmt
	if s.Kind == segment.SubBlock {
		subAnchor = s.Body.(*minic.Block).Stmts[0]
	}
	hoisted := hoistOutputDecls(prog, s)
	rr := prog.NewReuseRegion(tableID, segBit, s.Name)
	rr.Body = s.Body
	rr.Dep = dep

	inputs := s.Inputs
	if dep {
		inputs = s.DepInputs()
	}
	for _, in := range inputs {
		if in.Elem == nil {
			rr.Inputs = append(rr.Inputs, prog.NewIdent(in.Sym))
			continue
		}
		rr.Inputs = append(rr.Inputs, prog.NewIndex(prog.NewIdent(in.Sym), prog.CloneExpr(in.Elem)))
	}
	for _, o := range s.Outputs {
		if o.Elem == nil {
			rr.Outputs = append(rr.Outputs, prog.NewIdent(o.Sym))
			continue
		}
		rr.Outputs = append(rr.Outputs, prog.NewIndex(prog.NewIdent(o.Sym), prog.CloneExpr(o.Elem)))
	}

	switch s.Kind {
	case segment.FuncBody:
		// The original function body is [stmts..., trailing return]; the
		// segment body is the trimmed copy. Rebuild the function body as
		// {region; return}.
		orig := s.Fn.Body
		var tail []minic.Stmt
		if len(orig.Stmts) > 0 {
			if ret, ok := orig.Stmts[len(orig.Stmts)-1].(*minic.ReturnStmt); ok {
				tail = []minic.Stmt{ret}
			}
		}
		s.Fn.Body = prog.NewBlock(append(append(hoisted, rr), tail...)...)
	case segment.LoopBody:
		var repl minic.Stmt = rr
		if len(hoisted) > 0 {
			repl = prog.NewBlock(append(hoisted, rr)...)
		}
		switch p := s.Parent.(type) {
		case *minic.WhileStmt:
			p.Body = repl
		case *minic.ForStmt:
			p.Body = repl
		}
	case segment.IfBranch:
		var repl minic.Stmt = rr
		if len(hoisted) > 0 {
			repl = prog.NewBlock(append(hoisted, rr)...)
		}
		p := s.Parent.(*minic.IfStmt)
		if p.Then == s.Body {
			p.Then = repl
		} else if p.Else == s.Body {
			p.Else = repl
		}
	case segment.SubBlock:
		// Splice the run out of the parent block and insert the hoisted
		// declarations plus the region. The run is located by statement
		// identity: prior splices of sibling runs shift indices, but the
		// surviving original statements keep their identity (runs are
		// disjoint).
		blk := s.ParentBlock
		start := -1
		for i, st := range blk.Stmts {
			if st == subAnchor {
				start = i
				break
			}
		}
		if start < 0 {
			panic("transform: sub-block run not found in parent block")
		}
		runLen := s.RunEnd - s.RunStart
		var repl []minic.Stmt
		repl = append(repl, blk.Stmts[:start]...)
		repl = append(repl, hoisted...)
		repl = append(repl, rr)
		repl = append(repl, blk.Stmts[start+runLen:]...)
		blk.Stmts = repl
	}
	return rr
}
