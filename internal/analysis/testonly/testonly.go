// Package testonly finds production functions that only tests reach,
// and struct fields that only tests set. Such a function costs reading
// and upkeep but does nothing in any real run, and such a field is a
// knob no run turns: it holds its zero value, or its default, in every
// real run.
//
// A function is live when a root reaches it over the reference graph
// (analysis.Program.ReferencedFrom). The roots are every main, every
// init, the exported functions and methods of the module's root package
// (the api.golden surface), every method whose name matches a method of
// an interface the package set declares or imports (it may be called
// through the interface) and whose receiver type production code names
// (analysis.Program.NamesType), and every function a package-level
// variable initializer names. A receiver type counts as named only
// outside its own methods' receivers and blank `var _ I = T{}`
// assertions: a type that only tests construct, such as an alternative
// policy no caller selects, holds no value an interface call could
// reach, so its methods are reported too. An edge is any reference, not
// only a call: a method value, a function stored in a field or variable,
// or a function named inside a closure keeps its target live. Test files
// are not loaded, so what only they reach is reported, at the function's
// name.
//
// A struct field is live when production code stores into it
// (analysis.Program.Stores): a composite-literal element, an assignment,
// an increment or decrement, &x.F, or a pointer-method call on x.F such
// as x.F.Add(...) or x.mu.Lock(). A store into x.F.G, or into x.F[i]
// when F is an array, stores into F too. Stores through a value
// receiver do not count: a withDefaults that fills the field changes a
// copy. Blank, embedded and json-tagged fields are skipped. A type's
// dead fields are one finding, at the type's name.
//
// A finding is fixed by deleting the function or field (with any test
// whose only subject it was), by folding a field into a constant, by
// moving a function into test code (export_test.go or the test that uses
// it), or by keeping it with //swlint:allow testonly <reason>, for
// example for a test harness or a reference implementation a test
// compares against.
package testonly

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"switchflow/internal/analysis"
)

// Analyzer is the testonly check.
var Analyzer = &analysis.Analyzer{
	Name:    "testonly",
	Doc:     "every production function is reachable from a main, an init, the root package's API, an interface method of a type production names, or a package variable, and every struct field is set by production code",
	Collect: collect,
	Run:     run,
}

// rootFact marks a function as a reachability root.
type rootFact struct{}

// collect exports the roots this package contributes: its main, init and
// (in the root package) exported functions, plus every method anywhere
// in the program named like a method of an interface this package
// declares or imports, on a type production code names.
func collect(pass *analysis.Pass) error {
	root := isRootPackage(pass)
	ifaces := interfaceMethods(pass)
	for _, fn := range pass.Prog.Funcs() {
		method := fn.Type().(*types.Signature).Recv() != nil
		own := fn.Pkg() == pass.Pkg
		switch {
		case method && ifaces[fn.Name()] && pass.Prog.NamesType(receiverType(fn)),
			own && root && fn.Exported(),
			own && !method && (fn.Name() == "init" || fn.Name() == "main" && fn.Pkg().Name() == "main"):
			pass.ExportFact(fn, rootFact{})
		}
	}
	return nil
}

func run(pass *analysis.Pass) error {
	live := pass.Prog.ReferencedFrom(append(pass.FactFuncs(), pass.Prog.InitReferences()...))
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok && n.Body != nil && !live[fn] {
					pass.Reportf(n.Name.Pos(), "%s is reached only from tests", displayName(pass, fn))
				}
				return false
			case *ast.TypeSpec:
				if dead := unsetFields(pass, n); len(dead) > 0 {
					pass.Reportf(n.Name.Pos(), "no production code sets %s.%s", n.Name.Name, strings.Join(dead, ", "))
				}
			}
			return true
		})
	}
	return nil
}

// unsetFields lists the fields of ts's struct type that no production
// code stores into (analysis.Program.Stores), skipping blank and
// embedded fields, and json-tagged ones, which encoding/json sets. An
// alias reports nothing: its target's declaration does.
func unsetFields(pass *analysis.Pass, ts *ast.TypeSpec) []string {
	st, ok := pass.TypesInfo.Defs[ts.Name].Type().Underlying().(*types.Struct)
	if !ok || ts.Assign.IsValid() {
		return nil
	}
	var dead []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
		if f.Name() != "_" && !f.Embedded() && !tagged && !pass.Prog.Stores(f) {
			dead = append(dead, f.Name())
		}
	}
	return dead
}

// displayName renders fn as Name or (Recv).Name, relative to pass's
// package.
func displayName(pass *analysis.Pass, fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	return "(" + types.TypeString(recv.Type(), types.RelativeTo(pass.Pkg)) + ")." + fn.Name()
}

// receiverType returns the named type method fn belongs to.
func receiverType(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// isRootPackage reports whether pass's package is the module's root: the
// one whose import path prefixes every loaded package's path.
func isRootPackage(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	for _, u := range pass.Prog.Packages {
		if u.Path != path && !strings.HasPrefix(u.Path, path+"/") {
			return false
		}
	}
	return true
}

// interfaceMethods returns the method names of every interface pass's
// package declares (named or literal) or imports, plus error's.
func interfaceMethods(pass *analysis.Pass) map[string]bool {
	names := make(map[string]bool)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, imp := range pass.Pkg.Imports() {
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				add(pass.TypesInfo.TypeOf(it))
			}
			return true
		})
	}
	return names
}
