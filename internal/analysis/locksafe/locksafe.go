// Package locksafe checks the concurrency surface (the HTTP control
// plane and the parallel experiment harness) for three mutex hazards:
//
//  1. Leaked locks: a function that calls X.Lock() (or RLock) must also
//     unlock X — via defer or explicitly — in the same function. Helpers
//     that intentionally return holding the lock carry
//     //swlint:allow locksafe <reason>.
//
//  2. Work under the lock that can re-enter or block indefinitely.
//     Calling a function *value* (parameter, field, stored callback)
//     while a mutex is held may take the same lock again, and the
//     single-threaded simulation behind the control plane deadlocks.
//     Writing an HTTP response while a mutex is held blocks on the
//     client's socket, so one slow reader stalls every other request on
//     the control plane. Build the payload under the lock; write after
//     unlocking.
//
//  3. Mutex copies: passing or copying a sync.Mutex (or a struct
//     containing one) by value splits the critical section in two. This
//     overlaps go vet's copylocks on purpose — swlint also runs on
//     configurations where vet is skipped, and the testdata documents
//     the rule next to the others.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"switchflow/internal/analysis"
)

// Analyzer is the locksafe check.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "mutex hygiene: no leaked locks, no callbacks or response writes under a held lock, no mutex copies",
	Run:  run,
}

// lockTypes are the sync types whose value-copy or leak is reported.
var lockTypes = map[string]bool{
	"sync.Mutex":     true,
	"sync.RWMutex":   true,
	"sync.Once":      true,
	"sync.WaitGroup": true,
	"sync.Cond":      true,
}

// mutexTypes are the subset with Lock/Unlock pairs tracked by the
// held-region checks.
var mutexTypes = map[string]bool{
	"sync.Mutex":   true,
	"sync.RWMutex": true,
}

var unlockOf = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, n.Type, n.Body)
			case *ast.RangeStmt:
				checkRangeCopy(pass, n)
			case *ast.AssignStmt:
				checkAssignCopy(pass, n)
			}
			return true
		})
	}
	return nil
}

// lockCall matches a call to a mutex's Lock/RLock/Unlock/RUnlock and
// returns the receiver's printed form as a key.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	t := pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return "", "", false
	}
	path, named := analysis.NamedTypePath(t)
	if !named || !mutexTypes[path] {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// checkBody runs the leak and held-region checks over one function body,
// treating nested function literals as separate scopes.
func checkBody(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	checkSignatureCopy(pass, ftype)

	type lockSite struct {
		pos    token.Pos
		recv   string
		method string
	}
	var locks []lockSite
	type unlockSite struct {
		pos      token.Pos
		recv     string
		method   string
		deferred bool
	}
	var unlocks []unlockSite

	ownStmts(body, func(n ast.Node, inDefer bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		recv, method, ok := lockCall(pass, call)
		if !ok {
			return
		}
		switch method {
		case "Lock", "RLock":
			locks = append(locks, lockSite{call.Pos(), recv, method})
		case "Unlock", "RUnlock":
			unlocks = append(unlocks, unlockSite{call.Pos(), recv, method, inDefer})
		}
	})

	for _, l := range locks {
		want := unlockOf[l.method]
		// The held region runs from the Lock to the first later matching
		// non-deferred Unlock, or to the end of the function when the
		// unlock is deferred (or missing).
		end := body.End()
		found := false
		for _, u := range unlocks {
			if u.recv != l.recv || u.method != want {
				continue
			}
			found = true
			if !u.deferred && u.pos > l.pos && u.pos < end {
				end = u.pos
			}
		}
		if !found {
			pass.Reportf(l.pos,
				"%s.%s has no matching %s in this function; a leaked lock wedges every later caller", l.recv, l.method, want)
			continue
		}
		checkHeldRegion(pass, body, l.recv, l.pos, end)
	}
}

// checkHeldRegion flags calls inside [from, to) that must not run while
// recv's mutex is held.
func checkHeldRegion(pass *analysis.Pass, body *ast.BlockStmt, recv string, from, to token.Pos) {
	ownStmts(body, func(n ast.Node, inDefer bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= from || call.Pos() >= to {
			return
		}
		if _, _, isLockOp := lockCall(pass, call); isLockOp {
			return
		}
		if analysis.IsConversion(pass.TypesInfo, call) {
			return
		}
		// Response writes under the lock: any argument or receiver typed
		// http.ResponseWriter.
		for _, arg := range call.Args {
			if isResponseWriter(pass, arg) {
				pass.Reportf(call.Pos(),
					"writes an HTTP response while holding %s; a slow client blocks the whole control plane — build the payload under the lock and write after unlocking", recv)
				return
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isResponseWriter(pass, sel.X) {
			pass.Reportf(call.Pos(),
				"writes an HTTP response while holding %s; a slow client blocks the whole control plane — build the payload under the lock and write after unlocking", recv)
			return
		}
		// Dynamic calls under the lock: function values can re-enter.
		if isDynamicCall(pass, call) {
			pass.Reportf(call.Pos(),
				"calls a function value while holding %s; a callback that re-locks it deadlocks — invoke callbacks after unlocking", recv)
		}
	})
}

// isDynamicCall reports whether call invokes a function value (parameter,
// field, variable) rather than a declared function, method, builtin,
// conversion, or immediately invoked literal.
func isDynamicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if _, ok := fun.(*ast.FuncLit); ok {
		return false
	}
	if analysis.IsConversion(pass.TypesInfo, call) {
		return false
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return false
		}
	}
	if analysis.CalleeFunc(pass.TypesInfo, call) != nil {
		return false
	}
	t := pass.TypesInfo.Types[fun].Type
	if t == nil {
		return false
	}
	_, isSig := t.Underlying().(*types.Signature)
	return isSig
}

func isResponseWriter(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	path, ok := analysis.NamedTypePath(t)
	return ok && path == "net/http.ResponseWriter"
}

// ownStmts walks the nodes of a function body without descending into
// nested function literals (separate lock scopes), reporting whether each
// node sits under a defer statement.
func ownStmts(body *ast.BlockStmt, fn func(n ast.Node, inDefer bool)) {
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.DeferStmt:
			fn(n.Call, true)
			for _, arg := range n.Call.Args {
				walk(arg, true)
			}
			return
		}
		fn(n, inDefer)
		ast.Inspect(n, func(child ast.Node) bool {
			if child == nil || child == n {
				return true
			}
			switch child.(type) {
			case *ast.FuncLit, *ast.DeferStmt:
				walk(child, inDefer)
				return false
			}
			fn(child, inDefer)
			return true
		})
	}
	for _, s := range body.List {
		walk(s, false)
	}
}

// --- mutex copy checks ---

// checkSignatureCopy flags parameters and results that carry a lock by
// value.
func checkSignatureCopy(pass *analysis.Pass, ftype *ast.FuncType) {
	fields := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			t := pass.TypesInfo.Types[f.Type].Type
			if t == nil {
				continue
			}
			if name, bad := containsLock(t); bad {
				pass.Reportf(f.Type.Pos(),
					"%s passes %s by value (contains %s); copying a lock splits its critical section — use a pointer", kind, t.String(), name)
			}
		}
	}
	fields(ftype.Params, "parameter")
	fields(ftype.Results, "result")
}

// checkRangeCopy flags range loops whose value variable copies a lock.
func checkRangeCopy(pass *analysis.Pass, rs *ast.RangeStmt) {
	if rs.Value == nil {
		return
	}
	t := exprType(pass, rs.Value)
	if t == nil {
		return
	}
	if name, bad := containsLock(t); bad {
		pass.Reportf(rs.Value.Pos(),
			"range value copies %s (contains %s) each iteration; iterate by index or store pointers", t.String(), name)
	}
}

// checkAssignCopy flags assignments that copy a lock-bearing value out of
// a dereference, field, or element (fresh composite literals are fine).
func checkAssignCopy(pass *analysis.Pass, s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		switch ast.Unparen(rhs).(type) {
		case *ast.StarExpr, *ast.SelectorExpr, *ast.IndexExpr:
		default:
			continue
		}
		t := pass.TypesInfo.Types[rhs].Type
		if t == nil {
			continue
		}
		if name, bad := containsLock(t); bad {
			pass.Reportf(rhs.Pos(),
				"assignment copies %s (contains %s); copying a lock splits its critical section — use a pointer", t.String(), name)
		}
	}
}

// exprType resolves an expression's type, falling back to the ident's
// object for `:=`-defined names (recorded in Defs, not Types).
func exprType(pass *analysis.Pass, e ast.Expr) types.Type {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if o := pass.TypesInfo.Defs[id]; o != nil {
			return o.Type()
		}
		if o := pass.TypesInfo.Uses[id]; o != nil {
			return o.Type()
		}
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// containsLock reports whether t holds one of the sync lock types by
// value, naming the offending type.
func containsLock(t types.Type) (string, bool) {
	return containsLockSeen(t, make(map[types.Type]bool))
}

func containsLockSeen(t types.Type, seen map[types.Type]bool) (string, bool) {
	if seen[t] {
		return "", false
	}
	seen[t] = true
	if path, ok := analysis.NamedTypePath(t); ok && lockTypes[path] {
		if _, isPtr := t.(*types.Pointer); !isPtr {
			return path, true
		}
		return "", false
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name, bad := containsLockSeen(u.Field(i).Type(), seen); bad {
				return name, true
			}
		}
	case *types.Array:
		return containsLockSeen(u.Elem(), seen)
	}
	return "", false
}
