package analysis

import (
	"go/ast"
	"go/types"
)

// CapFlow enforces the paper's naming discipline on *values*, where the
// existing crosslayer rule enforces it on *imports*: capability
// selectors (kif.CapSel) are names in a VPE's private capability space
// and mean nothing outside it, and raw NoC node ids are hardware
// addresses that applications must never see. Neither may cross a
// layer boundary as a plain Go value — selectors travel between app
// and kernel only inside syscall messages (kif.OStream/IStream, which
// marshal them to bytes), and the kernel translates a selector to a
// concrete endpoint/node before it talks to the DTU.
//
// Three value flows are checked, all over the type-checked tree:
//
//  1. a call from one layer into another whose arguments carry a
//     selector or node id;
//  2. a call whose *result* hands a selector or node id back across a
//     boundary (a kernel API returning a CapSel to hardware, or a raw
//     NodeID into app code);
//  3. a direct write from one layer into a selector-typed field owned
//     by another layer's struct.
//
// Layers: app = m3 (libm3), workload, m3fs (services); kernel = core;
// hw = dtu, noc, mem, tile, accel. Everything else (kif, sim, obs,
// fault) is neutral glue and may carry either type — kif *is* the
// sanctioned channel.
var CapFlow = &Analyzer{
	Name: "capflow",
	Doc:  "forbid capability selectors and raw PE ids from crossing layer boundaries outside the syscall/delegation APIs",
	Run:  runCapFlow,
}

// capLayers maps package-path prefixes to layers; packages not listed
// are neutral ("").
var capLayers = map[string]string{
	"repro/internal/m3":       "app",
	"repro/internal/workload": "app",
	"repro/internal/m3fs":     "app",
	"repro/internal/core":     "kernel",
	"repro/internal/dtu":      "hw",
	"repro/internal/noc":      "hw",
	"repro/internal/mem":      "hw",
	"repro/internal/tile":     "hw",
	"repro/internal/accel":    "hw",
}

func layerOf(path string) string {
	for prefix, layer := range capLayers {
		if underPrefix(path, prefix) {
			return layer
		}
	}
	return ""
}

// capFlowAllowed lists the sanctioned carriers, by declaring package:
// everything in kif (stream marshalling, the selector type's own
// methods) plus cmd-level wiring (the boot code in cmd/* assembles the
// machine and legitimately hands node ids around; it is not simulated
// software).
func capFlowAllowed(pkgPath string) bool {
	return pkgPath == "repro/internal/kif" || underPrefix(pkgPath, "repro/cmd")
}

// selKind classifies a type: "capability selector" for kif.CapSel (or
// a struct containing one, like kif.CapRange), "raw node id" for
// noc.NodeID, "" otherwise.
func selKind(t types.Type) string {
	return selKindDepth(t, 0)
}

func selKindDepth(t types.Type, depth int) string {
	if depth > 3 || t == nil {
		return ""
	}
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj != nil && obj.Pkg() != nil {
			switch {
			case obj.Pkg().Path() == "repro/internal/kif" && obj.Name() == "CapSel":
				return "capability selector"
			case obj.Pkg().Path() == "repro/internal/noc" && obj.Name() == "NodeID":
				return "raw node id"
			}
		}
		return selKindDepth(t.Underlying(), depth+1)
	case *types.Pointer:
		return selKindDepth(t.Elem(), depth+1)
	case *types.Slice:
		return selKindDepth(t.Elem(), depth+1)
	case *types.Array:
		return selKindDepth(t.Elem(), depth+1)
	case *types.Map:
		if k := selKindDepth(t.Key(), depth+1); k != "" {
			return k
		}
		return selKindDepth(t.Elem(), depth+1)
	case *types.Struct:
		// Only exported fields make a struct a carrier: an unexported
		// selector or node id field is an opaque handle the owning
		// package resolves internally — the sanctioned capability
		// pattern (the holder can pass the struct around but cannot
		// read or forge the name inside it).
		for i := 0; i < t.NumFields(); i++ {
			if !t.Field(i).Exported() {
				continue
			}
			if k := selKindDepth(t.Field(i).Type(), depth+1); k != "" {
				return k
			}
		}
	}
	return ""
}

// crossingBanned reports whether a value of the given kind may not
// travel from layer a to layer b directly.
func crossingBanned(kind, a, b string) bool {
	if a == b || a == "" || b == "" {
		return false
	}
	switch kind {
	case "capability selector":
		// Selectors are private to the app<->kernel naming contract
		// and must never appear in hardware at all; every boundary
		// crossing outside kif is banned.
		return true
	case "raw node id":
		// Node ids are legitimate currency between kernel and hardware
		// (the kernel programs DTU endpoints with them); only the app
		// layer must never touch them.
		return a == "app" || b == "app"
	}
	return false
}

func runCapFlow(pass *Pass) {
	pkg := pass.Pkg
	callerLayer := layerOf(pkg.Path)
	owners := fieldOwners{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil {
				checkCapFlow(pass, owners, callerLayer, funcName(pkg.Path, obj), fd.Body)
			}
		}
	}
}

// checkCapFlow checks the calls and stores in the body of the function
// called name, function literals included.
func checkCapFlow(pass *Pass, owners fieldOwners, callerLayer, name string, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	path := pass.Pkg.Path
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, node)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			calleePath := fn.Pkg().Path()
			if capFlowAllowed(calleePath) || capFlowAllowed(path) {
				return true
			}
			calleeLayer := layerOf(calleePath)
			// Arguments crossing caller -> callee.
			for _, arg := range node.Args {
				kind := selKind(info.TypeOf(arg))
				if kind == "" || !crossingBanned(kind, callerLayer, calleeLayer) {
					continue
				}
				pass.Reportf(arg.Pos(),
					"%s passed from %s layer (%s) into %s layer (%s.%s): selectors and node ids cross layers only through the kif syscall/delegation APIs",
					kind, callerLayer, name, calleeLayer, calleePath, fn.Name())
			}
			// Results crossing callee -> caller.
			if kind := selKind(info.TypeOf(node)); kind != "" && crossingBanned(kind, calleeLayer, callerLayer) {
				pass.Reportf(node.Pos(),
					"%s returned from %s layer (%s.%s) into %s layer (%s): translate it at the boundary instead of leaking the raw value",
					kind, calleeLayer, calleePath, fn.Name(), callerLayer, name)
			}
		case *ast.AssignStmt:
			// Direct writes into another layer's selector-typed
			// fields.
			for _, lhs := range node.Lhs {
				loc, ok := owners.locOf(info, ast.Unparen(lhs))
				if !ok || !loc.Var.IsField() || loc.Var.Pkg() == nil {
					continue
				}
				ownerLayer := layerOf(loc.Var.Pkg().Path())
				kind := selKind(loc.Var.Type())
				if kind == "" || capFlowAllowed(path) || !crossingBanned(kind, callerLayer, ownerLayer) {
					continue
				}
				pass.Reportf(lhs.Pos(),
					"%s stored by %s layer (%s) into %s layer field %s: selector state belongs to its own layer",
					kind, callerLayer, name, ownerLayer, loc)
			}
		}
		return true
	})
}
