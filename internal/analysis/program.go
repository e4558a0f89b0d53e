package analysis

// Program is the whole-module view behind the flow-aware analyzers: every
// loaded package, a static call graph over declared functions, and a
// per-analyzer fact store in the spirit of go/analysis facts. Analyzers
// that need cross-package knowledge (which functions emit which events,
// which functions are barrier hooks) export facts during their Collect
// phase — which RunProgram drives over every package before any Run — and
// import them, or walk the call graph, during Run.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PackageUnit is one type-checked package handed to NewProgram (the
// analysis-side mirror of load.Package, so this package does not depend
// on the loader).
type PackageUnit struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Program is the analysis view of the whole module (or, in tests, of a
// single testdata package).
type Program struct {
	Fset     *token.FileSet
	Packages []*PackageUnit

	// callees is the static call graph: for every declared function with
	// a body, the set of declared functions it may call. Calls inside
	// function literals are attributed to the enclosing declaration —
	// closures run with their encloser's responsibilities.
	callees map[*types.Func]map[*types.Func]bool
	// refs is the reference graph, a superset of callees: every function
	// a declaration names, whether it calls it or takes it as a value (a
	// method value, a callback stored in a field). Closures fold into
	// their encloser here too. Only testonly reads it: binding a callback
	// is not running it, so the flow analyzers keep to callees.
	refs map[*types.Func]map[*types.Func]bool
	// initRefs are the functions package-level variable initializers
	// name; they run (or are bound) before main.
	initRefs map[*types.Func]bool
	// namedTypes are the named types some declaration names outside a
	// method receiver and a blank `var _ I = T{}` assertion. Only
	// testonly reads it: a type no code names is never constructed, so
	// no interface call can reach its methods.
	namedTypes map[*types.TypeName]bool
	// storedFields are the struct fields (generic ones as their origin)
	// some code stores into. Only testonly reads it: a field no
	// production code sets holds its zero value in every real run.
	storedFields map[*types.Var]bool
	// funcOrder lists declared functions in deterministic (position)
	// order, for fact iteration that must not depend on map order.
	funcOrder []*types.Func

	facts map[string]map[*types.Func]any
}

// NewProgram indexes the packages: declared functions, the static call
// graph, and an empty fact store.
func NewProgram(fset *token.FileSet, units []*PackageUnit) *Program {
	p := &Program{
		Fset:         fset,
		Packages:     units,
		callees:      make(map[*types.Func]map[*types.Func]bool),
		refs:         make(map[*types.Func]map[*types.Func]bool),
		initRefs:     make(map[*types.Func]bool),
		namedTypes:   make(map[*types.TypeName]bool),
		storedFields: make(map[*types.Var]bool),
		facts:        make(map[string]map[*types.Func]any),
	}
	for _, u := range units {
		if u.Info == nil {
			continue // syntax-only unit (directive tests); no call graph
		}
		for _, f := range u.Files {
			indexTypes(u.Info, f, p.namedTypes, p.storedFields)
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					referenced(u.Info, gd, p.initRefs)
					continue
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.funcOrder = append(p.funcOrder, fn)
				set := make(map[*types.Func]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeFunc(u.Info, call); callee != nil {
						set[callee] = true
					}
					return true
				})
				p.callees[fn] = set
				p.refs[fn] = referenced(u.Info, fd.Body, make(map[*types.Func]bool))
			}
		}
	}
	sort.Slice(p.funcOrder, func(i, j int) bool {
		return p.funcOrder[i].Pos() < p.funcOrder[j].Pos()
	})
	return p
}

// Funcs returns every declared function with a body, in deterministic
// source-position order.
func (p *Program) Funcs() []*types.Func {
	return p.funcOrder
}

// Callees returns the functions fn may call (static calls only, closures
// folded into their encloser), in deterministic order.
func (p *Program) Callees(fn *types.Func) []*types.Func {
	return sortedFuncs(p.callees[fn])
}

// sortedFuncs lists a function set in deterministic order.
func sortedFuncs(set map[*types.Func]bool) []*types.Func {
	out := make([]*types.Func, 0, len(set))
	for callee := range set {
		out = append(out, callee)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos() != out[j].Pos() {
			return out[i].Pos() < out[j].Pos()
		}
		return out[i].FullName() < out[j].FullName()
	})
	return out
}

// ReachableFrom returns the transitive closure of seeds over the call
// graph (seeds included). The result is a set; membership does not depend
// on traversal order.
func (p *Program) ReachableFrom(seeds []*types.Func) map[*types.Func]bool {
	return closure(seeds, p.callees)
}

// NamesType reports whether tn is named anywhere but in its own
// methods' receivers and in blank `var _ I = T{}` assertions.
func (p *Program) NamesType(tn *types.TypeName) bool { return p.namedTypes[tn] }

// Stores reports whether some code stores into field f (see
// indexTypes for what counts as a store).
func (p *Program) Stores(f *types.Var) bool { return p.storedFields[f.Origin()] }

// ReferencedFrom returns the transitive closure of seeds over the
// reference graph (seeds included): every function the seeds may call or
// hand out as a value.
func (p *Program) ReferencedFrom(seeds []*types.Func) map[*types.Func]bool {
	return closure(seeds, p.refs)
}

// InitReferences returns the functions package-level variable
// initializers name, in deterministic order.
func (p *Program) InitReferences() []*types.Func { return sortedFuncs(p.initRefs) }

// closure returns seeds plus everything edges reaches from them.
func closure(seeds []*types.Func, edges map[*types.Func]map[*types.Func]bool) map[*types.Func]bool {
	reach := make(map[*types.Func]bool)
	work := append([]*types.Func(nil), seeds...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if fn == nil || reach[fn] {
			continue
		}
		reach[fn] = true
		work = append(work, sortedFuncs(edges[fn])...)
	}
	return reach
}

// referenced adds to set the declared functions n names, called or not,
// and returns set. An instantiated generic function or method counts as
// its declaration.
func referenced(info *types.Info, n ast.Node, set map[*types.Func]bool) map[*types.Func]bool {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				set[fn.Origin()] = true
			}
		}
		return true
	})
	return set
}

// indexTypes adds to named the named types f names outside method
// receivers and blank interface assertions (`var _ I = T{}`), and to
// stored the struct fields f stores into. A store is a composite-literal
// element, an assignment, an increment or decrement, taking the field's
// address, or calling a pointer method on it; a store into x.F.G, or
// into x.F[i] for an array F, stores into F too. Stores through a
// value receiver do not count: they change a copy.
func indexTypes(info *types.Info, f *ast.File, named map[*types.TypeName]bool, stored map[*types.Var]bool) {
	var copyRecv types.Object
	store := func(e ast.Expr) {
		var fields []*types.Var
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					fields = append(fields, sel.Obj().(*types.Var).Origin())
					if !sel.Indirect() {
						e = x.X
						continue
					}
				}
			case *ast.IndexExpr:
				if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); ok {
					e = x.X
					continue
				}
			case *ast.Ident:
				if copyRecv != nil && info.Uses[x] == copyRecv {
					return
				}
			}
			break
		}
		for _, fv := range fields {
			stored[fv] = true
		}
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					if r := n.Recv.List[0]; len(r.Names) == 1 && !isPointer(info.TypeOf(r.Type)) {
						copyRecv = info.Defs[r.Names[0]]
					}
					ast.Inspect(n.Body, visit)
					copyRecv = nil
				}
				return false
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Names) == 1 && n.Names[0].Name == "_" {
				return false
			}
		case *ast.Ident:
			if tn, ok := info.Uses[n].(*types.TypeName); ok {
				named[tn] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				store(lhs)
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						store(e)
					}
				}
			}
		case *ast.IncDecStmt:
			store(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				store(n.X)
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal &&
				isPointer(sel.Obj().Type().(*types.Signature).Recv().Type()) && !isPointer(info.TypeOf(n.X)) {
				store(n.X)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if fv, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						stored[fv.Origin()] = true
					}
				} else {
					stored[st.Field(i).Origin()] = true
				}
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

// isPointer reports whether t's underlying type is a pointer.
func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// ExportFact records an analyzer-scoped fact about fn, overwriting any
// previous fact by the same analyzer. Facts are how the Collect phase
// publishes per-function knowledge (e.g. "may emit KindPreempt") for
// every Run to import, whichever package it is analyzing.
func (p *Pass) ExportFact(fn *types.Func, fact any) {
	if p.Prog == nil || fn == nil {
		return
	}
	m := p.Prog.facts[p.Analyzer.Name]
	if m == nil {
		m = make(map[*types.Func]any)
		p.Prog.facts[p.Analyzer.Name] = m
	}
	m[fn] = fact
}

// ImportFact retrieves the fact this pass's analyzer exported for fn.
func (p *Pass) ImportFact(fn *types.Func) (any, bool) {
	if p.Prog == nil {
		return nil, false
	}
	fact, ok := p.Prog.facts[p.Analyzer.Name][fn]
	return fact, ok
}

// FactFuncs returns the functions this pass's analyzer exported facts
// for, in deterministic source-position order.
func (p *Pass) FactFuncs() []*types.Func {
	if p.Prog == nil {
		return nil
	}
	m := p.Prog.facts[p.Analyzer.Name]
	out := make([]*types.Func, 0, len(m))
	for fn := range m {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos() != out[j].Pos() {
			return out[i].Pos() < out[j].Pos()
		}
		return out[i].FullName() < out[j].FullName()
	})
	return out
}
