package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces the hot-path allocation contract (DESIGN.md §8,
// §14): the simulator's per-invocation loops — engine dispatch, the
// platform arrive/finish handlers, pool scan/evict, eviction-policy
// victim selection, the Q-network inference pass and cluster routing —
// run at 0 allocs/op, a property until now pinned only dynamically by
// testing.AllocsPerRun benchmarks. HotAlloc computes the transitive
// callee set of those declared roots over the module call graph
// (interface calls resolved conservatively, so every registered
// policy, router and scheduler is walked) and flags allocation sites
// reachable from them: escaping composite literals, make/new,
// un-amortized append, capturing closures, string concatenation and
// conversions, and fmt/errors calls.
//
// Evidently-cold code is exempt automatically: panic arguments and
// branches ending in panic (the guard idiom). Amortized appends pass:
// append into a caller-provided parameter slice, or a self-append
// into persistent state (x.f = append(x.f, …)). Everything else needs
// an //mlcr:allow hotalloc with a reason — either on the site, or on
// the function declaration, which carves the whole function (and its
// exclusive callees) out of the walk for legitimately-cold paths like
// observability capture.
const hotallocName = "hotalloc"

var HotAlloc = &Analyzer{
	Name: hotallocName,
	Doc:  "no allocation sites reachable from the declared hot-path roots (engine dispatch, arrive/finish, pool scan/evict, PickVictim, ForwardInto, Route)",
}

// Run is wired in init: the function-carve-out check consults the
// directive table, which validates analyzer names against All — a
// static initialization cycle if Run were set in the literal.
func init() { HotAlloc.Run = runHotAlloc }

// hotRoots declares the hot-path entry points: the functions the
// obs/perf phase brackets time (DESIGN.md §11). methodOnly
// distinguishes cluster's Router.Route methods from the package-level
// cluster.Route function.
var hotRoots = []struct {
	pkg, name  string
	methodOnly bool
}{
	{pkg: "mlcr/internal/sim", name: "dispatch", methodOnly: true},
	{pkg: "mlcr/internal/platform", name: "handleArrival", methodOnly: true},
	{pkg: "mlcr/internal/platform", name: "handleFinish", methodOnly: true},
	{pkg: "mlcr/internal/pool", name: "AppendMatches", methodOnly: true},
	{pkg: "mlcr/internal/pool", name: "Add", methodOnly: true},
	{pkg: "mlcr/internal/evict", name: "PickVictim", methodOnly: true},
	{pkg: "mlcr/internal/drl", name: "ForwardInto", methodOnly: true},
	{pkg: "mlcr/internal/cluster", name: "Route", methodOnly: true},
	// The concurrent gateway's per-invocation serving path: the
	// lock-free fast-layer claim plus the sharded slow path (gwState
	// serve) and its completion drain. The QBatcher collector loop is
	// covered by the drl ForwardInto root above.
	{pkg: "mlcr/internal/api", name: "serve", methodOnly: true},
}

// hotReachable computes (once per module) the transitive hot set:
// every loaded function reachable from a root along non-cold edges,
// mapped to the label of the root that reached it first. Functions
// whose declaration carries an //mlcr:allow hotalloc directive are
// carved out — neither scanned nor traversed.
func hotReachable(m *Module) map[*types.Func]string {
	m.hotOnce.Do(func() {
		g := m.CallGraph()
		m.hot = make(map[*types.Func]string)
		var queue []*FuncNode
		for _, root := range hotRoots {
			for _, n := range g.sortedNodes() {
				if n.Pkg.Path != root.pkg || n.Obj.Name() != root.name {
					continue
				}
				if root.methodOnly && n.Obj.Type().(*types.Signature).Recv() == nil {
					continue
				}
				if _, seen := m.hot[n.Obj]; seen || funcCarvedOut(n) {
					continue
				}
				m.hot[n.Obj] = n.Label()
				queue = append(queue, n)
			}
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			label := m.hot[n.Obj]
			for _, e := range n.Edges {
				if e.Cold {
					continue
				}
				if _, seen := m.hot[e.Callee.Obj]; seen || funcCarvedOut(e.Callee) {
					continue
				}
				m.hot[e.Callee.Obj] = label
				queue = append(queue, e.Callee)
			}
		}
	})
	return m.hot
}

// funcCarvedOut reports whether the function's declaration line
// carries an //mlcr:allow hotalloc directive, marking it used. The
// carve-out is the sanctioned escape for functions that are reachable
// from a hot root but only run on cold paths (tracing capture, audit
// logging) — one directive instead of one per allocation.
func funcCarvedOut(n *FuncNode) bool {
	pos := n.Pkg.Fset.Position(n.Decl.Pos())
	for _, d := range n.Pkg.packageDirectives(nil) {
		if d.analyzer == hotallocName && d.file == pos.Filename && d.suppressesLine(pos.Line) {
			d.used.Store(true)
			return true
		}
	}
	return false
}

func runHotAlloc(p *Pass) {
	hot := hotReachable(p.Mod)
	for _, n := range p.Mod.CallGraph().sortedNodes() {
		if n.Pkg != p.pkg {
			continue
		}
		if root, ok := hot[n.Obj]; ok {
			scanAllocs(p, n, root)
		}
	}
}

// scanAllocs reports every allocation site in one hot function.
func scanAllocs(p *Pass, n *FuncNode, root string) {
	amortized := amortizedAppends(p, n)
	grown := guardedGrowth(p, n)
	params := paramVars(p, n.Decl)
	suffix := " (hot path via " + root + " — DESIGN.md §14)"
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if node == nil {
			return true
		}
		if n.inCold(node.Pos()) {
			return false // failure path: panic args, panic-terminated branches
		}
		if grown[node] {
			return true // amortized workspace growth; see guardedGrowth
		}
		switch e := node.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					p.Reportf(e.Pos(), "&composite literal escapes to the heap%s", suffix)
					return false
				}
			}
		case *ast.CompositeLit:
			if t := p.Info.TypeOf(e); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					p.Reportf(e.Pos(), "%s literal allocates its backing store%s", typeKind(t), suffix)
				}
			}
		case *ast.FuncLit:
			if capturesVars(p, e) {
				p.Reportf(e.Pos(), "closure captures variables and allocates%s", suffix)
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringExpr(p, e) && !isConstExpr(p, e) {
				p.Reportf(e.Pos(), "string concatenation allocates%s", suffix)
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringExpr(p, e.Lhs[0]) {
				p.Reportf(e.Pos(), "string += allocates%s", suffix)
			}
		case *ast.CallExpr:
			reportAllocCall(p, e, params, amortized, suffix)
		}
		return true
	})
}

// reportAllocCall classifies one call expression as an allocation
// site, if it is one.
func reportAllocCall(p *Pass, call *ast.CallExpr, params map[types.Object]bool, amortized map[*ast.CallExpr]bool, suffix string) {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		from := p.Info.TypeOf(call.Args[0])
		if allocatingConversion(tv.Type, from) {
			p.Reportf(call.Pos(), "%s conversion copies and allocates%s", types.TypeString(tv.Type, nil), suffix)
		}
		return
	}
	obj := calleeObj(p.Info, call)
	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "make":
			p.Reportf(call.Pos(), "make allocates%s", suffix)
		case "new":
			p.Reportf(call.Pos(), "new allocates%s", suffix)
		case "append":
			if amortized[call] || appendsToParam(p, call, params) {
				return // caller-owned or persistent buffer: amortized to 0
			}
			p.Reportf(call.Pos(), "append without evident pre-sizing may grow the slice%s", suffix)
		}
		return
	}
	if f, ok := obj.(*types.Func); ok && f.Pkg() != nil {
		switch f.Pkg().Path() {
		case "fmt", "errors":
			p.Reportf(call.Pos(), "%s.%s formats and allocates%s", f.Pkg().Name(), f.Name(), suffix)
		}
	}
}

// amortizedAppends finds the self-appends into persistent state:
// assignments of the shape x.f = append(x.f, …) (any selector/index
// chain), where the destination outlives the call, so growth is
// amortized to zero across the run — the engine's slab free lists and
// the pool's bucket slices. The source may also be a local alias of
// the destination (b := p.l1[k]; p.l1[k] = append(b, e) — the pool's
// bucket-index idiom): one hop of alias tracking covers it.
func amortizedAppends(p *Pass, n *FuncNode) map[*ast.CallExpr]bool {
	inits := make(map[types.Object]ast.Expr)
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if as.Tok == token.DEFINE {
			if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
				if obj := p.Info.Defs[id]; obj != nil {
					inits[obj] = as.Rhs[0]
				}
			}
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if b, ok := calleeObj(p.Info, call).(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		src := ast.Unparen(call.Args[0])
		if persistentExpr(as.Lhs[0]) {
			if sameExpr(as.Lhs[0], src) {
				out[call] = true
			} else if id, ok := src.(*ast.Ident); ok {
				if init := inits[p.Info.Uses[id]]; init != nil && sameExpr(as.Lhs[0], init) {
					out[call] = true
				}
			}
			return true
		}
		// Scratch-reslice idiom: cands := x.scratch[:0]; cands =
		// append(cands, …). The local self-append grows a persistent
		// backing array, amortized like the direct form.
		if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok && sameExpr(as.Lhs[0], src) {
			if init, ok := inits[defOrUse(p, id)].(*ast.SliceExpr); ok && persistentExpr(init.X) {
				out[call] = true
			}
		}
		return true
	})
	return out
}

// guardedGrowth finds the grow-once workspace idiom: an allocation
// assigned to persistent state inside an if whose condition checks
// that very destination's capacity, length or nil-ness —
//
//	if cap(a.targets) < n { a.targets = make([]float64, n) }
//	if c.startup == nil { c.startup = &perf.HDR{} }
//
// The allocation runs only when shapes change (or once, on first
// use); steady state takes the guard's other arm. Returns the exempt
// allocation expression nodes.
func guardedGrowth(p *Pass, n *FuncNode) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		ifs, ok := node.(*ast.IfStmt)
		if !ok {
			return true
		}
		targets := guardTargets(p, ifs.Cond)
		if len(targets) == 0 {
			return true
		}
		ast.Inspect(ifs.Body, func(inner ast.Node) bool {
			as, ok := inner.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !persistentExpr(as.Lhs[0]) {
				return true
			}
			guarded := false
			for _, t := range targets {
				if sameExpr(as.Lhs[0], t) {
					guarded = true
					break
				}
			}
			if !guarded {
				return true
			}
			switch rhs := ast.Unparen(as.Rhs[0]).(type) {
			case *ast.CallExpr:
				if b, ok := calleeObj(p.Info, rhs).(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
					out[ast.Node(rhs)] = true
				}
			case *ast.UnaryExpr:
				if rhs.Op == token.AND {
					out[ast.Node(rhs)] = true
				}
			}
			return true
		})
		return true
	})
	return out
}

// guardTargets extracts the expressions an if-condition guards by
// capacity, length or nil-ness: the A in cap(A), len(A), A == nil.
func guardTargets(p *Pass, cond ast.Expr) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(cond, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.CallExpr:
			if b, ok := calleeObj(p.Info, e).(*types.Builtin); ok && (b.Name() == "cap" || b.Name() == "len") && len(e.Args) == 1 {
				out = append(out, e.Args[0])
			}
		case *ast.BinaryExpr:
			if e.Op == token.EQL {
				if isNilIdent(e.Y) {
					out = append(out, e.X)
				} else if isNilIdent(e.X) {
					out = append(out, e.Y)
				}
			}
		}
		return true
	})
	return out
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// appendsToParam reports append into a slice the caller passed in —
// the append-API idiom (pool.AppendMatches): the caller owns and
// reuses the buffer, so steady-state growth is zero.
func appendsToParam(p *Pass, call *ast.CallExpr, params map[types.Object]bool) bool {
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	return params[p.Info.Uses[id]]
}

// paramVars collects the function's parameter objects.
func paramVars(p *Pass, decl *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// sameExpr reports structural equality for the lvalue shapes the
// amortized-append rule cares about: identifiers, selector chains and
// constant/identifier index expressions.
func sameExpr(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch ea := a.(type) {
	case *ast.Ident:
		eb, ok := b.(*ast.Ident)
		return ok && ea.Name == eb.Name
	case *ast.SelectorExpr:
		eb, ok := b.(*ast.SelectorExpr)
		return ok && ea.Sel.Name == eb.Sel.Name && sameExpr(ea.X, eb.X)
	case *ast.IndexExpr:
		eb, ok := b.(*ast.IndexExpr)
		return ok && sameExpr(ea.X, eb.X) && sameExpr(ea.Index, eb.Index)
	}
	return false
}

// persistentExpr reports whether an lvalue names storage that
// outlives the function call: anything reached through a selector or
// index (receiver fields, struct members, slice elements). A bare
// local is per-call storage — self-append to it still allocates fresh
// every invocation.
func persistentExpr(e ast.Expr) bool {
	switch ee := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return persistentExpr(ee.X)
	}
	return false
}

// capturesVars reports whether a function literal references
// variables declared outside itself (a capturing closure allocates;
// a pure one compiles to a static function value).
func capturesVars(p *Pass, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captured; anything declared
		// outside the literal's extent but inside some function is.
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			if v.Parent() != nil && v.Parent() != p.Pkg.Scope() && !isPkgLevel(p, v) {
				captures = true
				return false
			}
		}
		return true
	})
	return captures
}

// isPkgLevel reports whether the variable is declared at package
// scope.
func isPkgLevel(p *Pass, v *types.Var) bool {
	return v.Parent() == p.Pkg.Scope()
}

// allocatingConversion reports the conversions that copy memory:
// string <-> []byte / []rune.
func allocatingConversion(to, from types.Type) bool {
	if from == nil {
		return false
	}
	return (isString(to) && isByteOrRuneSlice(from)) || (isString(from) && isByteOrRuneSlice(to))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// isStringExpr reports whether the expression's type is a string.
func isStringExpr(p *Pass, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	return t != nil && isString(t)
}

// isConstExpr reports whether the expression folds to a constant
// (constant string concatenation happens at compile time).
func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// typeKind names a composite-literal type for messages.
func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return strings.TrimPrefix(types.TypeString(t, nil), "mlcr/")
}
