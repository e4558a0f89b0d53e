package scenario

import (
	"go/types"
	"os"
	"testing"

	"switchflow/internal/analysis/load"
)

// TestNoHTTP fails when the package imports net/http, directly or through
// any dependency. Everything that runs scenarios links this package, the
// bench binary among them, where linking net/http measurably raises the
// live heap and the allocations per kernel.
func TestNoHTTP(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modulePath, err := load.ModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := load.New(root, modulePath).Import(modulePath + "/internal/scenario")
	if err != nil {
		t.Fatal(err)
	}
	// importer maps each package reached to the one that first imported it.
	importer := map[string]string{}
	for queue := []*types.Package{pkg}; len(queue) > 0; queue = queue[1:] {
		for _, dep := range queue[0].Imports() {
			if _, seen := importer[dep.Path()]; !seen {
				importer[dep.Path()] = queue[0].Path()
				queue = append(queue, dep)
			}
		}
	}
	if _, ok := importer["net/http"]; !ok {
		return
	}
	chain := "net/http"
	for p := importer["net/http"]; p != ""; p = importer[p] {
		chain = p + " -> " + chain
	}
	t.Errorf("the scenario package links net/http: %s", chain)
}
