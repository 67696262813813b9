package analysis

import (
	"go/ast"
	"go/types"
	"path"
)

// ScratchCopy flags by-value copies of the worker scratch types —
// graph.Scratch, partition.Scratch, floorplan.Scratch,
// deadlock.Scratch, power.Scratch — and of any
// struct that embeds one of them as a non-pointer field (the sweep's
// buildContext and route.Router, for example). The scratch structs are
// the per-worker arenas the parallel sweep's zero-allocation steady
// state rests on: they hold multi-kilobyte reusable buffers plus
// interior pointers back into themselves. A by-value copy silently
// duplicates the buffers,
// resurrects the allocation churn the arenas exist to remove, and —
// worse — leaves the copy's interior pointers aimed at the original,
// so two workers end up sharing "private" buffers and the
// bit-identical-across-worker-counts guarantee dies in a data race.
// This is the same class of bug vet's copylocks catches for sync
// types, applied to the tree's own scratch family.
//
// Flagged sites: function parameters, results and receivers declared
// with a scratch type (pass a pointer instead); assignments and
// short variable declarations whose right-hand side reads an existing
// scratch value (x := bc.scratch, y = *p); call arguments passing a
// scratch value; composite-literal elements seeding a field from an
// existing scratch value; and range clauses whose value variable
// copies a scratch element per iteration. Composite literals and call
// results on the right-hand side are exempt — `sc := graph.Scratch{}`
// is initialization, not duplication, which is exactly why the
// `*bc = buildContext{env: bc.env}` recovery reset in the sweep is
// clean.
var ScratchCopy = &Analyzer{
	Name: "scratchcopy",
	Doc: "flags by-value copies of the worker scratch arenas " +
		"(graph, partition, floorplan, deadlock and power Scratch and " +
		"structs embedding them); a copy duplicates pinned buffers and " +
		"aliases interior pointers across workers",
	Run: runScratchCopy,
}

// scratchOwnerPkgs lists the final import-path segments of the
// packages whose Scratch type is protected. Matching on the last
// segment (like the other scoped tables) lets golden fixtures stand in
// for the real packages.
var scratchOwnerPkgs = map[string]bool{
	"graph":     true,
	"partition": true,
	"floorplan": true,
	"deadlock":  true,
	"power":     true,
}

func runScratchCopy(p *Pass) {
	memo := map[types.Type]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkScratchSignature(p, memo, n.Recv, n.Type)
			case *ast.FuncLit:
				checkScratchSignature(p, memo, nil, n.Type)
			case *ast.AssignStmt:
				// A multi-value assignment (x, y := f()) has one call
				// on the right; calls are exempt, so pairwise walking
				// only the len-matched form loses nothing.
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						// `_ = x` discards the value without a copy;
						// it is the standard mark-used idiom.
						if isBlankIdent(n.Lhs[i]) {
							continue
						}
						checkScratchRead(p, memo, rhs, "assignment copies")
					}
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkScratchRead(p, memo, v, "declaration copies")
				}
			case *ast.CallExpr:
				// Builtins (len, cap, ...) inspect their operand
				// without copying it.
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if _, ok := p.Info.Uses[id].(*types.Builtin); ok {
						return true
					}
				}
				for _, arg := range n.Args {
					checkScratchRead(p, memo, arg, "call passes")
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					checkScratchRead(p, memo, elt, "composite literal copies")
				}
			case *ast.RangeStmt:
				if n.Value != nil && !isBlankIdent(n.Value) {
					if t := p.Info.TypeOf(n.Value); t != nil && containsScratch(memo, t) {
						p.Reportf(n.Value.Pos(), "range clause copies %s per iteration; range by index or over pointers instead", scratchTypeName(t))
					}
				}
			}
			return true
		})
	}
}

// isBlankIdent reports whether e is the blank identifier.
func isBlankIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// checkScratchSignature reports scratch-typed receivers, parameters
// and results of a function type. Pointer forms are the fix and pass
// untouched.
func checkScratchSignature(p *Pass, memo map[types.Type]bool, recv *ast.FieldList, ft *ast.FuncType) {
	check := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := p.Info.TypeOf(field.Type)
			if t == nil || !containsScratch(memo, t) {
				continue
			}
			p.Reportf(field.Type.Pos(), "%s %s by value; use a pointer so workers keep one arena each", kind, scratchTypeName(t))
		}
	}
	check(recv, "receiver takes")
	check(ft.Params, "parameter takes")
	check(ft.Results, "result returns")
}

// checkScratchRead reports expr when it reads an existing
// scratch-typed value — an identifier, field selection, index
// expression or pointer dereference. Composite literals (fresh zero
// or keyed initialization) and call results are exempt: the former is
// how a scratch is born, and the latter is already flagged at the
// callee's result declaration when the callee is in scope.
func checkScratchRead(p *Pass, memo map[types.Type]bool, expr ast.Expr, verb string) {
	e := ast.Unparen(expr)
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.TypeAssertExpr:
	default:
		return
	}
	t := p.Info.TypeOf(e)
	if t == nil || !containsScratch(memo, t) {
		return
	}
	// Selecting or naming a type (graph.Scratch{} walks its
	// SelectorExpr too) is not a value read.
	if tv, ok := p.Info.Types[e]; ok && !tv.IsValue() {
		return
	}
	p.Reportf(expr.Pos(), "%s %s by value; take a pointer to the worker's arena instead", verb, scratchTypeName(t))
}

// containsScratch reports whether t holds one of the protected
// scratch types by value: the scratch type itself, a struct with a
// scratch-containing non-pointer field, or an array of such. Pointers,
// slices, maps and channels break containment — copying those copies
// a reference, which is the sanctioned way to share an arena.
func containsScratch(memo map[types.Type]bool, t types.Type) bool {
	if v, ok := memo[t]; ok {
		return v
	}
	// Pre-seed false so a recursive type terminates; the final value
	// overwrites it.
	memo[t] = false
	v := false
	switch t := t.(type) {
	case *types.Named:
		v = isScratchNamed(t) || containsScratch(memo, t.Underlying())
	case *types.Alias:
		v = containsScratch(memo, types.Unalias(t))
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsScratch(memo, t.Field(i).Type()) {
				v = true
				break
			}
		}
	case *types.Array:
		v = containsScratch(memo, t.Elem())
	}
	memo[t] = v
	return v
}

// isScratchNamed reports whether t is a Scratch type declared in one
// of the owner packages, matched on the final import-path segment.
func isScratchNamed(t *types.Named) bool {
	obj := t.Obj()
	if obj == nil || obj.Name() != "Scratch" || obj.Pkg() == nil {
		return false
	}
	return scratchOwnerPkgs[path.Base(obj.Pkg().Path())]
}

// scratchTypeName names the outermost type for the diagnostic:
// "graph.Scratch" for the scratch itself, the struct's own name when
// the scratch is embedded.
func scratchTypeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok && named.Obj() != nil && named.Obj().Pkg() != nil {
		return path.Base(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
	}
	return t.String()
}
