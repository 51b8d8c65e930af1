// Package segment implements the paper's code segment analysis (§3.1):
// enumerating candidate code segments (function bodies, loop bodies, IF
// branches), computing each segment's inputs (upward-exposed reads minus
// invariants) and outputs (definitions live at segment exit), the code
// coverage analysis that detects invariant variables (§2.4), the array
// reference analysis for array inputs/outputs, and the static granularity
// and hashing-overhead bounds that drive the O/C < 1 pre-profiling filter.
package segment

import (
	"fmt"
	"sort"

	"compreuse/internal/callgraph"
	"compreuse/internal/cfg"
	"compreuse/internal/cost"
	"compreuse/internal/dataflow"
	"compreuse/internal/minic"
	"compreuse/internal/pointer"
)

// Kind classifies candidate segments.
type Kind int

// Segment kinds (paper §3.1: "we confine the candidate code segment to a
// function body, a loop body, or an IF branch").
const (
	FuncBody Kind = iota
	LoopBody
	IfBranch
	// SubBlock is the beyond-paper extension (the paper's §5 future work):
	// a contiguous statement run inside a block.
	SubBlock
)

func (k Kind) String() string {
	switch k {
	case FuncBody:
		return "func"
	case LoopBody:
		return "loop"
	case IfBranch:
		return "if"
	default:
		return "sub"
	}
}

// Segment is one candidate code segment with its analysis results.
type Segment struct {
	// Index is the segment's position in Analysis.Segments.
	Index int
	Kind  Kind
	Fn    *minic.FuncDecl
	// Body is the statement the segment wraps. For FuncBody segments this
	// is the function body *minus* the trailing return (Fig. 2b keeps the
	// return outside the table look-up).
	Body minic.Stmt
	// Loop is the enclosing loop for LoopBody segments, the IfStmt for
	// IfBranch segments, nil for FuncBody.
	Parent minic.Stmt
	// Name labels the segment, e.g. "quan@func".
	Name string

	// RawInputs are the upward-exposed reads before invariant filtering.
	RawInputs []*minic.Symbol
	// Invariants are the raw inputs proven invariant by the code coverage
	// analysis; they are excluded from the hash key.
	Invariants []*minic.Symbol
	// Inputs are the hash-key locations in canonical order: whole
	// variables, or single array elements arr[iv] whose induction-variable
	// index is address-only (the UNEPIC pattern).
	Inputs []Input
	// Outputs are the locations recorded in / restored from the table.
	Outputs []Output
	// RetOut is the local returned by a trailing "return x" that the
	// segment must also produce (FuncBody only; nil otherwise or when the
	// function returns void).
	RetOut *minic.Symbol

	// KeyBytes / OutBytes are the modeled C sizes of one input set and one
	// output set.
	KeyBytes int
	OutBytes int

	// CMax / CMin are the optimistic/pessimistic static granularity bounds
	// in cycles; Overhead is the static hashing overhead estimate.
	CMax, CMin int64
	Overhead   int64

	// FreqID is the AST node id whose execution-frequency count equals the
	// segment's instance count.
	FreqID int

	// AddrVar is the address-only induction variable excluded from the
	// key, if any (LoopBody segments only).
	AddrVar *minic.Symbol

	// ParentBlock and RunStart/RunEnd locate a SubBlock segment's
	// statement run inside its enclosing block (transform splices there).
	ParentBlock *minic.Block
	RunStart    int
	RunEnd      int

	// Eligible is false when the segment cannot be transformed; Reason
	// explains why.
	Eligible bool
	Reason   string
}

// RatioOK reports the paper's pre-profiling filter O/C < 1, evaluated with
// the optimistic granularity bound (a segment failing even optimistically
// can never satisfy R > O/C, since R <= 1).
func (s *Segment) RatioOK() bool {
	return s.Eligible && s.CMax > 0 && float64(s.Overhead)/float64(s.CMax) < 1
}

func (s *Segment) String() string {
	return fmt.Sprintf("%s[%s] in=%v out=%v C=[%d,%d] O=%d",
		s.Name, s.Kind, inNames(s.Inputs), outNames(s.Outputs), s.CMin, s.CMax, s.Overhead)
}

// Output is one recorded location: a whole variable (Elem nil) or a single
// array element arr[Elem] whose index is a function of the segment inputs
// (the element-output case of the array reference analysis).
type Output struct {
	Sym  *minic.Symbol
	Elem minic.Expr
}

// Input is one hash-key location: a whole variable (Elem nil), or a single
// array element arr[Elem] when the index is an address-only induction
// variable (array reference analysis, the UNEPIC single-int-input case).
type Input struct {
	Sym  *minic.Symbol
	Elem minic.Expr
}

// Bytes is the modeled C size of the keyed location.
func (in Input) Bytes() int {
	if in.Elem == nil {
		return in.Sym.Type.Bytes()
	}
	return scalarElem(in.Sym.Type).Bytes()
}

func (in Input) String() string {
	if in.Elem == nil {
		return in.Sym.Name
	}
	return in.Sym.Name + "[" + minic.PrintExpr(in.Elem) + "]"
}

func inNames(ins []Input) []string {
	r := make([]string, len(ins))
	for i, in := range ins {
		r[i] = in.String()
	}
	return r
}

// Bytes is the modeled C size of the recorded location.
func (o Output) Bytes() int {
	if o.Elem == nil {
		return o.Sym.Type.Bytes()
	}
	return scalarElem(o.Sym.Type).Bytes()
}

// Words is the VM word count of the recorded location.
func (o Output) Words() int {
	if o.Elem == nil {
		return o.Sym.Type.Words()
	}
	return 1
}

func (o Output) String() string {
	if o.Elem == nil {
		return o.Sym.Name
	}
	return o.Sym.Name + "[" + minic.PrintExpr(o.Elem) + "]"
}

// scalarElem unwraps nested array types to the scalar element.
func scalarElem(t minic.Type) minic.Type {
	for {
		at, ok := t.(*minic.Array)
		if !ok {
			return t
		}
		t = at.Elem
	}
}

func outNames(outs []Output) []string {
	r := make([]string, len(outs))
	for i, o := range outs {
		r[i] = o.String()
	}
	return r
}

func names(syms []*minic.Symbol) []string {
	out := make([]string, len(syms))
	for i, s := range syms {
		out[i] = s.Name
	}
	return out
}

// Options tunes the analysis.
type Options struct {
	// Model is the cost model for the static bounds (default O0).
	Model *cost.Model
	// SubBlocks additionally enumerates sub-block segments — the paper's
	// §5 future work (contiguous statement runs inside blocks).
	SubBlocks bool
}

// maxSetBytes rejects segments whose input set or output set exceeds
// this size.
const maxSetBytes = 64 << 10

// Analysis holds the segment analysis of one program.
type Analysis struct {
	Prog *minic.Program
	Pts  *pointer.Analysis
	CG   *callgraph.Graph
	Eff  *dataflow.Effects
	Est  *cost.Static

	// Segments lists every enumerated candidate, eligible or not, in
	// deterministic order.
	Segments []*Segment

	opts Options
	// gdu is the program-wide def-use summary for globals.
	gdu *dataflow.GlobalDefUse
	// writeCache memoizes writesIn per subtree.
	writeCache map[minic.Stmt]dataflow.SymSet
	// fnLive memoizes liveAfter's function-wide liveness per function.
	fnLive map[*minic.FuncDecl]*funcLive
}

// Analyze enumerates and analyzes every candidate segment of prog.
func Analyze(prog *minic.Program, pts *pointer.Analysis, cg *callgraph.Graph,
	eff *dataflow.Effects, opts Options) *Analysis {
	if opts.Model == nil {
		opts.Model = cost.O0()
	}
	a := &Analysis{
		Prog: prog, Pts: pts, CG: cg, Eff: eff,
		Est:    cost.NewStatic(opts.Model),
		opts:   opts,
		gdu:    eff.BuildGlobalDefUse(),
		fnLive: map[*minic.FuncDecl]*funcLive{},
	}
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		a.enumerate(fn)
		if opts.SubBlocks {
			a.enumerateSubBlocks(fn)
		}
	}
	for i, s := range a.Segments {
		s.Index = i
		a.analyzeSegment(s)
	}
	return a
}

// Eligible returns the segments that passed all structural checks.
func (a *Analysis) Eligible() []*Segment {
	var out []*Segment
	for _, s := range a.Segments {
		if s.Eligible {
			out = append(out, s)
		}
	}
	return out
}

// Candidates returns the eligible segments that also pass the O/C filter —
// the set forwarded to value-set profiling (paper Fig. 1).
func (a *Analysis) Candidates() []*Segment {
	var out []*Segment
	for _, s := range a.Segments {
		if s.RatioOK() {
			out = append(out, s)
		}
	}
	return out
}

// enumerate walks fn collecting candidate segments.
func (a *Analysis) enumerate(fn *minic.FuncDecl) {
	// Function body segment.
	a.Segments = append(a.Segments, &Segment{
		Kind: FuncBody, Fn: fn, Body: fn.Body,
		Name:   fn.Name + "@func",
		FreqID: fn.ID(),
	})
	loopSeq, ifSeq := 0, 0
	minic.InspectStmts(fn.Body, func(s minic.Stmt) bool {
		switch s := s.(type) {
		case *minic.WhileStmt:
			loopSeq++
			a.Segments = append(a.Segments, &Segment{
				Kind: LoopBody, Fn: fn, Body: s.Body, Parent: s,
				Name:   fmt.Sprintf("%s@loop%d", fn.Name, loopSeq),
				FreqID: s.ID(),
			})
		case *minic.ForStmt:
			loopSeq++
			a.Segments = append(a.Segments, &Segment{
				Kind: LoopBody, Fn: fn, Body: s.Body, Parent: s,
				Name:   fmt.Sprintf("%s@loop%d", fn.Name, loopSeq),
				FreqID: s.ID(),
			})
		case *minic.IfStmt:
			ifSeq++
			a.Segments = append(a.Segments, &Segment{
				Kind: IfBranch, Fn: fn, Body: s.Then, Parent: s,
				Name:   fmt.Sprintf("%s@if%d_then", fn.Name, ifSeq),
				FreqID: s.Then.ID(),
			})
			if s.Else != nil {
				a.Segments = append(a.Segments, &Segment{
					Kind: IfBranch, Fn: fn, Body: s.Else, Parent: s,
					Name:   fmt.Sprintf("%s@if%d_else", fn.Name, ifSeq),
					FreqID: s.Else.ID(),
				})
			}
		}
		return true
	})
}

// analyzeSegment fills in the segment's inputs, outputs, sizes, static
// bounds and eligibility.
func (a *Analysis) analyzeSegment(s *Segment) {
	s.Eligible = true

	// FuncBody: split off the trailing return.
	if s.Kind == FuncBody {
		if !a.prepareFuncBody(s) {
			return
		}
	}

	// Structural check: the wrapped body must be single-entry single-exit.
	if esc := escapeKind(s.Body); esc != "" {
		s.fail("body has escaping control flow (%s)", esc)
		return
	}

	segG := cfg.BuildStmt(s.Body)

	// Inputs: upward-exposed reads.
	raw := a.Eff.UpwardExposed(segG)
	s.RawInputs = raw.Sorted()

	// Address-only induction variable (array reference analysis): for a
	// loop body whose induction variable only ever indexes direct array
	// accesses, the variable itself is excluded from the key and arrays
	// read exactly at arr[iv] contribute a single element value to the
	// key — even when the array itself is invariant, since the element
	// read still varies with iv (the UNEPIC case).
	var iv *minic.Symbol
	elemArrays := map[*minic.Symbol]bool{}
	if s.Kind == LoopBody {
		if f, ok := s.Parent.(*minic.ForStmt); ok {
			if cand, _ := inductionVar(f); cand != nil && a.addressOnly(cand, s.Body) {
				iv = cand
				// Every upward-exposed array read through iv must reduce
				// to a single element, or iv cannot be dropped from the
				// key.
				for _, sym := range s.RawInputs {
					if _, isArr := sym.Type.(*minic.Array); !isArr {
						continue
					}
					if a.readAtIndex(sym, iv, s.Body) {
						if a.elementOnlyRead(sym, iv, s.Body) {
							elemArrays[sym] = true
						} else {
							iv = nil
							elemArrays = map[*minic.Symbol]bool{}
							break
						}
					}
				}
			}
		}
	}

	// Invariance filtering (code coverage analysis, §2.4). Element-read
	// arrays bypass the filter: their keyed element varies with iv.
	var inputs []*minic.Symbol
	for _, sym := range s.RawInputs {
		if sym == iv {
			continue // address-only: never part of the key
		}
		if elemArrays[sym] {
			inputs = append(inputs, sym)
			continue
		}
		if a.InvariantFor(sym, s) {
			s.Invariants = append(s.Invariants, sym)
		} else {
			inputs = append(inputs, sym)
		}
	}
	s.Inputs = nil
	for _, sym := range canonicalOrder(inputs) {
		if elemArrays[sym] {
			s.Inputs = append(s.Inputs, Input{Sym: sym, Elem: a.Prog.NewIdent(iv)})
			continue
		}
		s.Inputs = append(s.Inputs, Input{Sym: sym})
	}
	s.AddrVar = iv

	// Outputs: definitions live after the segment. Aggregates must be
	// key-covered, fully written, or reducible to element writes (array
	// reference analysis).
	liveAfter := a.liveAfter(s)
	outs := a.Eff.SegmentOutputs(segG, liveAfter)
	if s.RetOut != nil {
		outs.Add(s.RetOut)
	}
	if !a.buildOutputs(s, canonicalOrder(outs.Sorted())) {
		return
	}

	// Type/size eligibility of inputs and outputs.
	if !a.checkEncodable(s) {
		return
	}

	// Static bounds.
	s.CMax = a.Est.MaxCycles(s.Body)
	s.CMin = a.Est.MinCycles(s.Body)
	s.Overhead = a.opts.Model.HashOverhead(s.KeyBytes, s.OutBytes)
}

func (s *Segment) fail(format string, args ...any) {
	s.Eligible = false
	s.Reason = fmt.Sprintf(format, args...)
}

// prepareFuncBody splits a trailing "return x" off the function body and
// records the returned local as a segment output. Functions with early
// returns or a trailing return of a non-identifier are ineligible (the
// paper leaves sub-body segments to future work).
func (a *Analysis) prepareFuncBody(s *Segment) bool {
	body, ok := s.Body.(*minic.Block)
	if !ok || len(body.Stmts) == 0 {
		s.fail("empty function body")
		return false
	}
	last := body.Stmts[len(body.Stmts)-1]
	ret, isRet := last.(*minic.ReturnStmt)

	// Count returns anywhere in the body.
	returns := 0
	minic.InspectStmts(body, func(st minic.Stmt) bool {
		if _, ok := st.(*minic.ReturnStmt); ok {
			returns++
		}
		return true
	})

	switch {
	case minic.IsVoid(s.Fn.Ret):
		if returns > 0 {
			s.fail("void function with explicit returns")
			return false
		}
		s.Body = body
	case !isRet || returns != 1:
		s.fail("function body does not end in a single trailing return")
		return false
	default:
		switch x := ret.X.(type) {
		case *minic.Ident:
			s.RetOut = x.Sym
		case *minic.IntLit, *minic.FloatLit:
			// Constant return: nothing extra to record.
		default:
			s.fail("trailing return is not a simple variable or constant")
			return false
		}
		trimmed := a.Prog.NewBlock(body.Stmts[:len(body.Stmts)-1]...)
		s.Body = trimmed
	}
	return true
}

// escapeKind reports whether body contains a break/continue/return that
// would leave the segment ("" if none).
func escapeKind(body minic.Stmt) string {
	kind := ""
	var walk func(st minic.Stmt, loopDepth int)
	walk = func(st minic.Stmt, loopDepth int) {
		if st == nil || kind != "" {
			return
		}
		switch x := st.(type) {
		case *minic.ReturnStmt:
			kind = "return"
		case *minic.BreakStmt:
			if loopDepth == 0 {
				kind = "break"
			}
		case *minic.ContinueStmt:
			if loopDepth == 0 {
				kind = "continue"
			}
		case *minic.Block:
			for _, y := range x.Stmts {
				walk(y, loopDepth)
			}
		case *minic.IfStmt:
			walk(x.Then, loopDepth)
			walk(x.Else, loopDepth)
		case *minic.WhileStmt:
			walk(x.Body, loopDepth+1)
		case *minic.ForStmt:
			walk(x.Body, loopDepth+1)
		case *minic.ReuseRegion:
			walk(x.Body, loopDepth)
		}
	}
	walk(body, 0)
	return kind
}

// funcLive is the function-wide liveness every segment of one function
// reads: its CFG, the extern set seeding the exit, and the fixpoint. It is
// computed once per function; liveAfter only reads it (Clone/AddAll into
// fresh sets), so the cached sets stay immutable.
type funcLive struct {
	g      *cfg.Graph
	extern dataflow.SymSet
	live   map[*cfg.Node]*dataflow.LiveSets
}

// funcLiveness returns fn's cached liveness, computing it on first use.
func (a *Analysis) funcLiveness(fn *minic.FuncDecl) *funcLive {
	if fl, ok := a.fnLive[fn]; ok {
		return fl
	}
	// Globals (or escaping locals) read by any other function are live.
	extern := dataflow.SymSet{}
	for sym, readers := range a.gdu.UseFns {
		for _, r := range readers {
			if r != fn {
				extern.Add(sym)
				break
			}
		}
	}
	g := cfg.Build(fn)
	fl := &funcLive{g: g, extern: extern, live: a.Eff.Liveness(g, extern)}
	a.fnLive[fn] = fl
	return fl
}

// liveAfter computes the externally observable liveness at the segment's
// exit point. The returned set is the caller's own.
func (a *Analysis) liveAfter(s *Segment) dataflow.SymSet {
	fl := a.funcLiveness(s.Fn)
	switch s.Kind {
	case FuncBody:
		// Exit = function exit: locals are dead, globals per extern.
		return fl.live[fl.g.Exit].Out.Clone()
	default:
		// The live set at the segment's exit is the union of live-in over
		// the boundary successors: function-CFG nodes outside the segment
		// subtree reachable by an edge from inside it.
		inSeg := stmtIDsOf(s.Body)
		out := fl.extern.Clone()
		for _, n := range fl.g.Nodes {
			if !nodeInside(n, inSeg) {
				continue
			}
			for _, succ := range n.Succs {
				if !nodeInside(succ, inSeg) {
					out.AddAll(fl.live[succ].In)
				}
			}
		}
		return out
	}
}

// stmtIDsOf collects the node ids of every statement and expression in the
// subtree.
func stmtIDsOf(body minic.Stmt) map[int]bool {
	ids := map[int]bool{}
	minic.Inspect(body, func(n minic.Node) bool {
		type ider interface{ ID() int }
		if x, ok := n.(ider); ok {
			ids[x.ID()] = true
		}
		return true
	})
	return ids
}

// nodeInside reports whether a CFG node belongs to a statement subtree,
// using the node's owning statement.
func nodeInside(n *cfg.Node, ids map[int]bool) bool {
	if n.Owner == nil {
		return false
	}
	return ids[n.Owner.ID()]
}

// checkEncodable validates input/output types and computes key/output
// sizes.
func (a *Analysis) checkEncodable(s *Segment) bool {
	key := 0
	for _, in := range s.Inputs {
		t := in.Sym.Type
		if in.Elem != nil {
			t = scalarElem(t)
		}
		b, ok := encodableBytes(t)
		if !ok {
			s.fail("input %s has non-encodable type %s", in, t)
			return false
		}
		key += b
	}
	if key == 0 {
		s.fail("segment has no inputs to key on")
		return false
	}
	if key > maxSetBytes {
		s.fail("input set too large (%d bytes)", key)
		return false
	}
	outB := 0
	for _, o := range s.Outputs {
		t := o.Sym.Type
		if o.Elem != nil {
			t = scalarElem(t)
		}
		b, ok := encodableBytes(t)
		if !ok {
			s.fail("output %s has non-encodable type %s", o, t)
			return false
		}
		// Outputs must be nameable in the segment's scope.
		if o.Sym.Kind == minic.SymLocal || o.Sym.Kind == minic.SymParam {
			if o.Sym.Func != s.Fn {
				s.fail("output %s is a local of another function", o)
				return false
			}
		}
		outB += b
	}
	if len(s.Outputs) == 0 {
		s.fail("segment has no live outputs")
		return false
	}
	if outB > maxSetBytes {
		s.fail("output set too large (%d bytes)", outB)
		return false
	}
	s.KeyBytes = key
	s.OutBytes = outB
	return true
}

// encodableBytes returns the modeled byte size of a hashable/copyable
// type: int and float scalars, and arrays/structs composed of them.
func encodableBytes(t minic.Type) (int, bool) {
	switch t := t.(type) {
	case *minic.Basic:
		if t.Kind == minic.VoidKind {
			return 0, false
		}
		return t.Bytes(), true
	case *minic.Array:
		if _, ok := encodableBytes(t.Elem); !ok {
			return 0, false
		}
		return t.Bytes(), true
	case *minic.Struct:
		for _, f := range t.Fields {
			if _, ok := encodableBytes(f.Type); !ok {
				return 0, false
			}
		}
		return t.Bytes(), true
	}
	return 0, false // pointers, function types
}

// canonicalOrder sorts symbols: parameters (by slot), then locals (by
// slot), then globals (by name) — the fixed input ordering the paper
// requires for key composition.
func canonicalOrder(syms []*minic.Symbol) []*minic.Symbol {
	out := append([]*minic.Symbol(nil), syms...)
	rank := func(s *minic.Symbol) int {
		switch s.Kind {
		case minic.SymParam:
			return 0
		case minic.SymLocal:
			return 1
		default:
			return 2
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := rank(out[i]), rank(out[j])
		if ri != rj {
			return ri < rj
		}
		if ri < 2 && out[i].Slot != out[j].Slot {
			return out[i].Slot < out[j].Slot
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Disjoint greedily splits segs, in order, into the segments sharing no
// AST node with any of taken or with an earlier kept segment, and the
// rest. Overlapping segments (sub-block runs, or a run and the body
// around it) cannot be wrapped in the same transformation.
func Disjoint(segs, taken []*Segment) (kept, rest []*Segment) {
	var sets []map[int]bool
	for _, s := range taken {
		sets = append(sets, nodeIDs(s))
	}
	for _, s := range segs {
		ids := nodeIDs(s)
		if overlapsAny(ids, sets) {
			rest = append(rest, s)
			continue
		}
		kept = append(kept, s)
		sets = append(sets, ids)
	}
	return kept, rest
}

// nodeIDs returns the node ids of a segment's original statements.
func nodeIDs(s *Segment) map[int]bool {
	ids := map[int]bool{}
	minic.Inspect(s.Body, func(n minic.Node) bool {
		if x, ok := n.(interface{ ID() int }); ok {
			ids[x.ID()] = true
		}
		return true
	})
	return ids
}

func overlapsAny(ids map[int]bool, sets []map[int]bool) bool {
	for _, set := range sets {
		a, b := ids, set
		if len(b) < len(a) {
			a, b = b, a
		}
		for id := range a {
			if b[id] {
				return true
			}
		}
	}
	return false
}
