package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// PoolEscape flags pooled arena state — the worker scratch family
// (graph.Scratch, partition.Scratch, floorplan.Scratch,
// deadlock.Scratch, power.Scratch), the
// Reset-recycled engine objects (topology.Topology, route.Router) and
// the router-owned route.NoPathError, which the router's next call
// overwrites — whose reference escapes its arena lifetime. The PR 4/6 arena
// discipline hands each sweep worker a buildContext that owns its
// scratch by value and recycles Topology/Router through Reset; any
// reference that outlives the arena turns the next Reset into a silent
// use-after-recycle, corrupting a later design point with an earlier
// one's buffers. Three escape shapes are flagged:
//
//   - global store: a pooled reference assigned into a package-level
//     variable (directly or through a field/index chain rooted there)
//     outlives every arena by construction;
//   - field store: a pooled reference assigned into a field of a type
//     that is not itself an arena container (does not hold pooled state
//     by value), parking the reference in a longer-lived object;
//   - boundary return: a selector chain rooted at a parameter or
//     receiver returning a pooled reference out of a type that is not
//     an arena container, exporting arena internals past the pooling
//     boundary; or the address of pooled state held by value (&p.f,
//     &p.a[i]) rooted at a parameter or receiver, unless a method is
//     lending a field of its own receiver.
//
// The sanctioned idioms stay clean: arena containers such as the
// sweep's buildContext hold arena state by value, so stores into their
// fields (bc.top = ...) and selector returns rooted at a
// pointer-to-container parameter (the takeTop handoff) are exempt, as
// are fresh values — &Topology{}, new(Router), constructor calls —
// which create rather than leak. An owner lending its own storage
// (the router's return &r.noPath, valid until its next call) is clean
// too. A value copy of a lent type is plain data: a struct that keeps
// one (the copy-out idiom for route.NoPathError) is not an arena
// container.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc: "flags pooled arena references (graph/partition/floorplan/" +
		"deadlock/power Scratch, topology.Topology, route.Router, " +
		"route.NoPathError) " +
		"escaping the arena: " +
		"stored into a global, stored into a non-arena struct field, or " +
		"returned past the pooling boundary",
	Run: runPoolEscape,
}

// poolKind tells the two kinds of pooled type apart.
type poolKind uint8

const (
	notPooled poolKind = iota
	// arenaPooled is recycled arena state: a struct that holds it by
	// value is an arena container.
	arenaPooled
	// lentPooled is storage its owner lends by pointer until the
	// owner's next call; a value copy of it is plain data.
	lentPooled
)

// pooledTypes names the Reset-recycled and lent types, keyed by (final
// import-path segment, type name) so golden fixtures can stand in for
// the real packages.
var pooledTypes = map[[2]string]poolKind{
	{"graph", "Scratch"}:     arenaPooled,
	{"partition", "Scratch"}: arenaPooled,
	{"floorplan", "Scratch"}: arenaPooled,
	{"deadlock", "Scratch"}:  arenaPooled,
	{"power", "Scratch"}:     arenaPooled,
	{"topology", "Topology"}: arenaPooled,
	{"route", "Router"}:      arenaPooled,
	{"route", "NoPathError"}: lentPooled,
}

func runPoolEscape(p *Pass) {
	memo := map[types.Type]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkPoolAssign(p, memo, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkPoolReturns(p, memo, n.Recv, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkPoolReturns(p, memo, nil, n.Type, n.Body)
			}
			return true
		})
	}
}

// checkPoolAssign applies the global-store and field-store rules to one
// assignment. Multi-value forms pair off only when lengths match; the
// unmatched form has a call on the right, and call results are fresh.
func checkPoolAssign(p *Pass, memo map[types.Type]bool, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[i]
		name, ok := pooledRefRead(p, memo, rhs)
		if !ok {
			continue
		}
		lhs = ast.Unparen(lhs)
		if root, global := globalRoot(p, lhs); global {
			p.Reportf(as.Pos(), "pooled %s stored into package-level %s escapes every arena; the next Reset recycles it under the global's feet", name, root)
			continue
		}
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			base := p.Info.TypeOf(sel.X)
			if base == nil {
				continue
			}
			if isArenaContainer(memo, derefType(base)) {
				continue // stores within the arena (bc.top = ...) are the handoff idiom
			}
			p.Reportf(as.Pos(), "pooled %s stored into field %s of non-arena type %s outlives the arena; copy the data out or keep the reference inside the build context", name, sel.Sel.Name, typeLabel(derefType(base)))
		}
	}
}

// checkPoolReturns applies the boundary-return rule to one function
// body, skipping nested function literals (they are visited with their
// own parameter set by the caller's walk).
func checkPoolReturns(p *Pass, memo map[types.Type]bool, recv *ast.FieldList, ft *ast.FuncType, body *ast.BlockStmt) {
	owned := map[types.Object]bool{}
	var recvObj types.Object
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					owned[obj] = true
					if fl == recv {
						recvObj = obj
					}
				}
			}
		}
	}
	collect(recv)
	collect(ft.Params)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			res := ast.Unparen(res)
			var chain ast.Expr // the selector chain read, or whose address is taken
			addr := false
			switch r := res.(type) {
			case *ast.SelectorExpr:
				chain = r
			case *ast.UnaryExpr:
				if r.Op == token.AND {
					chain, addr = ast.Unparen(r.X), true
				}
			}
			if chain == nil {
				continue // bare identifiers are pass-through plumbing, not extraction
			}
			name, ok := pooledRefRead(p, memo, res)
			if !ok {
				continue
			}
			rootIdent := exprRoot(chain)
			if rootIdent == nil || rootIdent == chain {
				continue // &x of a whole variable takes no state out of another value
			}
			obj := p.Info.Uses[rootIdent]
			if obj == nil || !owned[obj] {
				continue // rooted at a local; the value never crossed the boundary inward
			}
			rt := derefType(obj.Type())
			if addr {
				if sel, ok := chain.(*ast.SelectorExpr); ok && obj == recvObj && ast.Unparen(sel.X) == rootIdent {
					continue // the owner lends a field of its own receiver (the router's &r.noPath)
				}
			} else if isArenaContainer(memo, rt) && !isPooledNamed(rt) {
				continue // returning out of the build context is the sanctioned handoff
			}
			p.Reportf(res.Pos(), "return of pooled %s extracted from %s crosses the pooling boundary; the caller's copy survives the next Reset", name, typeLabel(rt))
		}
		return true
	})
}

// pooledRefRead reports whether expr reads an existing reference to
// pooled state: an identifier, selector, index or dereference of type
// *T with T pooled-containing, or the address of such an lvalue.
// Fresh values — composite literals, new, constructor calls — are not
// reads: they create a reference, they cannot leak one that an arena
// already owns.
func pooledRefRead(p *Pass, memo map[types.Type]bool, expr ast.Expr) (string, bool) {
	e := ast.Unparen(expr)
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op.String() == "&" {
		inner := ast.Unparen(un.X)
		switch inner.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			if t := p.Info.TypeOf(inner); t != nil && isArenaContainer(memo, t) {
				return typeLabel(t) + " reference", true
			}
		}
		return "", false
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return "", false
	}
	t := p.Info.TypeOf(e)
	if t == nil {
		return "", false
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok || !isArenaContainer(memo, ptr.Elem()) {
		return "", false
	}
	if tv, ok := p.Info.Types[e]; ok && !tv.IsValue() {
		return "", false // a type name, not a value read
	}
	return "*" + typeLabel(ptr.Elem()), true
}

// globalRoot walks lhs through selector/index/star chains to its root
// identifier and reports whether that identifier is a package-level
// variable, naming it for the diagnostic.
func globalRoot(p *Pass, lhs ast.Expr) (string, bool) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.Ident:
			obj := p.Info.Uses[e]
			if obj == nil {
				obj = p.Info.Defs[e]
			}
			v, ok := obj.(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return "", false
			}
			return "var " + v.Name(), true
		default:
			return "", false
		}
	}
}

// exprRoot walks a selector chain (through index and dereference
// steps) to its root identifier, nil when the chain bottoms out in a
// call or other non-identifier.
func exprRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// derefType peels one pointer layer, returning element types unchanged
// otherwise.
func derefType(t types.Type) types.Type {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// isArenaContainer reports whether t is pooled state: a pooled type
// itself, or a type that holds arena state by value (a struct with an
// arena-containing non-pointer field, or an array of such). Pointers,
// slices, maps and channels break containment, mirroring scratchcopy's
// rule, and so does a lent type: its value copy is plain data.
func isArenaContainer(memo map[types.Type]bool, t types.Type) bool {
	return pooledKindOf(types.Unalias(t)) == lentPooled || holdsArena(memo, t)
}

// holdsArena is isArenaContainer without the lent types.
func holdsArena(memo map[types.Type]bool, t types.Type) bool {
	if v, ok := memo[t]; ok {
		return v
	}
	memo[t] = false // terminate recursive types; overwritten below
	v := false
	switch t := t.(type) {
	case *types.Named:
		v = pooledKindOf(t) == arenaPooled || holdsArena(memo, t.Underlying())
	case *types.Alias:
		v = holdsArena(memo, types.Unalias(t))
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if holdsArena(memo, t.Field(i).Type()) {
				v = true
				break
			}
		}
	case *types.Array:
		v = holdsArena(memo, t.Elem())
	}
	memo[t] = v
	return v
}

// isPooledNamed reports whether t is one of the pooled types.
func isPooledNamed(t types.Type) bool { return pooledKindOf(t) != notPooled }

// pooledKindOf classifies t by (package base, name); notPooled for
// anything but a named pooled type.
func pooledKindOf(t types.Type) poolKind {
	named, ok := t.(*types.Named)
	if !ok {
		return notPooled
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return notPooled
	}
	return pooledTypes[[2]string{path.Base(obj.Pkg().Path()), obj.Name()}]
}

// typeLabel names t as pkgbase.Name for diagnostics, falling back to
// the type's own string form.
func typeLabel(t types.Type) string {
	if named, ok := t.(*types.Named); ok && named.Obj() != nil && named.Obj().Pkg() != nil {
		return path.Base(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
	}
	return t.String()
}
