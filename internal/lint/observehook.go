package lint

import (
	"go/ast"
)

// Observehook enforces the Observer coverage contract from PR 5
// (observe.go: hooks "fire on every request path ... including the
// fast-failure paths"): on a type annotated //qlint:observed, every
// exported query-path method must fire EXACTLY ONE Observe* hook, and
// the hook call must be an unconditional top-level statement of the
// method body so early-error returns are observed too.
//
// The enforced shape is the wrapper pattern of the local runtime that
// Client and Pool share (and of Remote):
//
//	func (r *localRuntime) Search(ctx ..., ...) (..., error) {
//		start := time.Now()
//		rs, shards, err := r.searchText(ctx, ...)   // all early returns inside
//		r.cfg.obs.search(start, k, shards, ...)     // the one hook, top level
//		return rs, err
//	}
//
// Zero hooks means an unobserved path (metrics silently undercount);
// two means double counting; a hook nested inside an if/switch/for can
// be skipped by the very error paths the contract promises to observe.
var Observehook = &Analyzer{
	Name: "observehook",
	Doc: "exported query-path methods of //qlint:observed types fire exactly one Observe* hook " +
		"as an unconditional top-level statement (early-error returns must be observed)",
	Run: runObservehook,
}

// observedMethods is the query- and write-path method set of the
// Backend contract plus the Pool's reload path. Close and the cheap
// accessors are deliberately outside: they have no observation in the
// Observer interface.
var observedMethods = map[string]bool{
	"Search":           true,
	"SearchAll":        true,
	"Expand":           true,
	"ExpandAll":        true,
	"SearchExpansion":  true,
	"SearchExpansions": true,
	"Reload":           true,
	"Ingest":           true,
	"Compact":          true,
}

// hookNames are the observers fan-out helpers (observe.go).
var hookNames = []string{"search", "expand", "batch", "reload", "ingest", "compact"}

func runObservehook(pass *Pass) {
	observed := typeDirectives(pass.Pkg, "observed")
	if len(observed) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !observedMethods[fn.Name.Name] || !ast.IsExported(fn.Name.Name) {
				continue
			}
			if recv := recvTypeName(fn); recv == "" || !observed[recv] {
				continue
			}
			checkHooks(pass, fn)
		}
	}
}

func checkHooks(pass *Pass, fn *ast.FuncDecl) {
	var total, topLevel int
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isHookCall(call) {
			total++
		}
		return true
	})
	for _, stmt := range fn.Body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		if call, ok := es.X.(*ast.CallExpr); ok && isHookCall(call) {
			topLevel++
		}
	}
	switch {
	case total == 0:
		pass.Reportf(fn.Name.Pos(),
			"%s is a query-path method of a //qlint:observed type but fires no Observe* hook: this path is invisible to metrics", fn.Name.Name)
	case total > 1:
		pass.Reportf(fn.Name.Pos(),
			"%s fires %d Observe* hooks; exactly one is the contract (double counting)", fn.Name.Name, total)
	case topLevel != 1:
		pass.Reportf(fn.Name.Pos(),
			"%s's Observe* hook is nested inside a conditional; it must be an unconditional top-level statement so early-error returns are observed", fn.Name.Name)
	}
}

// isHookCall matches the observers helper calls: obs.search(...),
// r.cfg.obs.search(...), p.obs().batch(...) — a selector call of a hook
// name whose receiver chain mentions an obs field or obs() method.
func isHookCall(call *ast.CallExpr) bool {
	x, ok := selectorCall(call, hookNames...)
	if !ok {
		return false
	}
	return mentionsObs(x)
}

func mentionsObs(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "obs" || e.Name == "observers"
	case *ast.SelectorExpr:
		return e.Sel.Name == "obs" || mentionsObs(e.X)
	case *ast.CallExpr:
		return mentionsObs(e.Fun)
	}
	return false
}
