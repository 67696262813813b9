package analysis

import (
	"go/ast"
	"go/types"
	"path"
)

// NarrowID flags unchecked conversions into the 32-bit design ID types
// (soc.CoreID, soc.IslandID, soc.FlowID, topology.SwitchID,
// topology.LinkID) in the
// two packages that decode external input, specio and cache. A JSON
// number or a cache varint converted straight into an int32 ID wraps: a
// stored 2^32+5 reads as a valid 5, and the topology builder's range
// checks never see the real value. Those packages convert through
// soc.NarrowID, which returns a *soc.IDRangeError instead. The
// conversions that cannot wrap stay clean: a constant (the compiler
// checks it), a len or cap call, and the index of a range loop over a
// slice, array or string, whose bounds a len already states. A
// conversion into a type parameter whose type set admits int32 is
// flagged too, since it may be instantiated with an ID type.
var NarrowID = &Analyzer{
	Name: "narrowid",
	Doc: "flags conversions into soc.CoreID, soc.IslandID, soc.FlowID, " +
		"topology.SwitchID or topology.LinkID in specio and cache that are not " +
		"a constant, a len/cap call or a range index; decoded IDs narrow " +
		"through soc.NarrowID",
	Run: runNarrowID,
}

// idTypes names the 32-bit ID types by (final import-path segment,
// type name), so golden fixtures can stand in for the real packages.
var idTypes = map[[2]string]bool{
	{"soc", "CoreID"}:        true,
	{"soc", "IslandID"}:      true,
	{"soc", "FlowID"}:        true,
	{"topology", "SwitchID"}: true,
	{"topology", "LinkID"}:   true,
}

// narrowIDPackages are the decoders of external input the rule covers.
var narrowIDPackages = map[string]bool{"specio": true, "cache": true}

func runNarrowID(p *Pass) {
	if !narrowIDPackages[p.PkgBase()] {
		return
	}
	for _, f := range p.Files {
		rangeIdx := map[types.Object]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if id, ok := n.Key.(*ast.Ident); ok && boundedRange(p.Info.TypeOf(n.X)) {
					if obj := p.Info.Defs[id]; obj != nil {
						rangeIdx[obj] = true
					}
				}
			case *ast.CallExpr:
				checkNarrowing(p, rangeIdx, n)
			}
			return true
		})
	}
}

// checkNarrowing reports call when it converts an operand that may lie
// outside int32 into an ID type.
func checkNarrowing(p *Pass, rangeIdx map[types.Object]bool, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	label, ok := idTarget(tv.Type)
	if !ok {
		return
	}
	arg := ast.Unparen(call.Args[0])
	if av, ok := p.Info.Types[arg]; ok && av.Value != nil {
		return // a constant: the compiler rejects one that overflows
	}
	switch a := arg.(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(a.Fun).(*ast.Ident); ok {
			if b, ok := p.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
				return
			}
		}
	case *ast.Ident:
		if rangeIdx[p.Info.Uses[a]] {
			return
		}
	}
	p.Reportf(call.Pos(), "unchecked conversion into %s can wrap a decoded value past int32 into a valid-looking ID; convert through soc.NarrowID", label)
}

// idTarget reports whether t is an ID type, or a type parameter that
// may be instantiated with one, and names it.
func idTarget(t types.Type) (string, bool) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		obj := t.Obj()
		if obj == nil || obj.Pkg() == nil {
			return "", false
		}
		key := [2]string{path.Base(obj.Pkg().Path()), obj.Name()}
		return key[0] + "." + key[1], idTypes[key]
	case *types.TypeParam:
		return "type parameter " + t.Obj().Name(), admitsInt32(t.Constraint())
	}
	return "", false
}

// admitsInt32 reports whether the type set of constraint c has a term
// whose underlying type is int32.
func admitsInt32(c types.Type) bool {
	iface, ok := c.Underlying().(*types.Interface)
	if !ok {
		return isInt32(c)
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch e := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < e.Len(); j++ {
				if isInt32(e.Term(j).Type()) {
					return true
				}
			}
		default:
			if admitsInt32(e) {
				return true
			}
		}
	}
	return false
}

func isInt32(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int32
}

// boundedRange reports whether ranging over a value of type t yields
// indices below a len: a slice, array, pointer to array or string.
func boundedRange(t types.Type) bool {
	if t == nil {
		return false
	}
	u := t.Underlying()
	if ptr, ok := u.(*types.Pointer); ok {
		u = ptr.Elem().Underlying()
	}
	switch u := u.(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}
