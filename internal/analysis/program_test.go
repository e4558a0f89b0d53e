package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// TestReferencesIncludeMethodValues pins the split between the two
// graphs: binding a method value is a reference but not a call, so
// Callees leaves it out (epochsafe and obspair must not treat the binder
// as running it) while ReferencedFrom reaches it.
func TestReferencesIncludeMethodValues(t *testing.T) {
	const src = `package p

type t struct{}

func (t) m()      {}
func (t) viaLit() {}

func bind() func() { var x t; return x.m }
func call()        { var x t; x.m() }
func lit() func()  { return func() { var x t; x.viaLit() } }

var hook = bind
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(fset, []*PackageUnit{{Path: "p", Files: []*ast.File{f}, Pkg: pkg, Info: info}})
	fn := func(name string) *types.Func {
		if obj := pkg.Scope().Lookup(name); obj != nil {
			return obj.(*types.Func)
		}
		obj, _, _ := types.LookupFieldOrMethod(pkg.Scope().Lookup("t").Type(), false, pkg, name)
		return obj.(*types.Func)
	}
	m := fn("m")
	if got := prog.Callees(fn("bind")); len(got) != 0 {
		t.Errorf("Callees(bind) = %v, want none: a method value is not a call", got)
	}
	if !prog.ReferencedFrom([]*types.Func{fn("bind")})[m] {
		t.Error("the reference graph misses the method value bind returns")
	}
	if !prog.ReachableFrom([]*types.Func{fn("call")})[m] {
		t.Error("the call graph misses call's static call")
	}
	if !prog.ReferencedFrom([]*types.Func{fn("lit")})[fn("viaLit")] {
		t.Error("a reference inside a closure does not fold into its encloser")
	}
	if got := prog.InitReferences(); len(got) != 1 || got[0] != fn("bind") {
		t.Errorf("InitReferences() = %v, want [bind]", got)
	}
}
