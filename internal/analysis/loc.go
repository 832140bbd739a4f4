package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Loc is one abstract mutable location: a package-level variable or a
// struct field, identified by its types object. Locations are
// field-sensitive but instance-insensitive: a write to d.eps[i].Credits
// is the field dtu.epState.Credits, whichever epState (or DTU) it is.
type Loc struct {
	// Var is the variable or field object.
	Var *types.Var
	// Owner names the struct type declaring a field; empty for
	// package-level vars and for fields of anonymous structs.
	Owner string
}

// String returns the stable identity used in finding keys and
// messages: "pkg/path.VarName", "pkg/path.Type.Field", or
// "pkg/path.(struct).Field" for a field of an anonymous struct.
func (l Loc) String() string {
	v := l.Var
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	switch {
	case !v.IsField():
		return fmt.Sprintf("%s.%s", pkg, v.Name())
	case l.Owner != "":
		return fmt.Sprintf("%s.%s.%s", pkg, l.Owner, v.Name())
	}
	return fmt.Sprintf("%s.(struct).%s", pkg, v.Name())
}

// fieldOwners names the struct type declaring each field, for stable
// Loc identities. A package's named struct types are registered the
// first time one of its fields is looked up, so the map works for any
// package a rule sees, the module's own and its imports alike.
type fieldOwners map[*types.Package]map[*types.Var]string

// owner returns the name of the package-level struct type declaring
// field v, or "" for a field of an anonymous struct.
func (o fieldOwners) owner(v *types.Var) string {
	pkg := v.Pkg()
	if pkg == nil {
		return ""
	}
	names, ok := o[pkg]
	if !ok {
		names = make(map[*types.Var]string)
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				names[st.Field(i)] = tn.Name()
			}
		}
		o[pkg] = names
	}
	return names[v]
}

// locOf resolves an assignable expression to an abstract location:
// package-level var, or struct field (through any number of
// selectors/indexes/stars). Locals and parameters return ok=false.
func (o fieldOwners) locOf(info *types.Info, expr ast.Expr) (Loc, bool) {
	switch expr := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[expr].(*types.Var); ok && isPackageLevel(v) {
			return Loc{Var: v}, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[expr]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return Loc{Var: v, Owner: o.owner(v)}, true
			}
		}
		// Package-qualified var: pkg.V
		if v, ok := info.Uses[expr.Sel].(*types.Var); ok && isPackageLevel(v) {
			return Loc{Var: v}, true
		}
	case *ast.IndexExpr:
		// m[k] = v mutates whatever m is: attribute to m's location.
		return o.locOf(info, expr.X)
	case *ast.StarExpr:
		return o.locOf(info, expr.X)
	}
	return Loc{}, false
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	if v.Pkg() == nil || v.IsField() {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}
