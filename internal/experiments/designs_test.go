package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/btb"
	"repro/internal/core"
)

func TestDesignConstructors(t *testing.T) {
	sets := [][]Design{StandardDesigns(), AblationDesigns(), ShotgunDesigns()}
	for si, ds := range sets {
		names := map[string]bool{}
		for _, d := range ds {
			if d.Name == "" || d.New == nil {
				t.Errorf("set %d: incomplete design %+v", si, d)
				continue
			}
			if names[d.Name] {
				t.Errorf("set %d: duplicate design name %q", si, d.Name)
			}
			names[d.Name] = true
			tp, err := d.New()
			if err != nil {
				t.Errorf("set %d %s: %v", si, d.Name, err)
				continue
			}
			if tp.StorageBits() == 0 {
				t.Errorf("%s reports zero storage", d.Name)
			}
			// A second New must give independent state.
			tp2, _ := d.New()
			if tp == tp2 {
				t.Errorf("%s: New returned shared instance", d.Name)
			}
		}
	}
}

func TestDesignWrappers(t *testing.T) {
	base := BaselineDesign(NameBaseline, 4096)

	pd := WithPerfectDirection(base)
	var cfg core.Config
	pd.Mod(&cfg)
	if !cfg.PerfectDirection {
		t.Error("WithPerfectDirection did not set the flag")
	}
	if pd.Name == base.Name {
		t.Error("wrapper did not rename the design")
	}

	it := WithITTAGE(BaselineDesign(NameBaseline, 4096))
	cfg = core.Config{}
	it.Mod(&cfg)
	if cfg.ITTAGE == nil {
		t.Error("WithITTAGE did not install a predictor")
	}

	rets := WithReturnsInBTB(BaselineDesign(NameBaseline, 4096))
	cfg = core.Config{}
	rets.Mod(&cfg)
	if !cfg.StoreReturnsInBTB {
		t.Error("WithReturnsInBTB did not set the flag")
	}

	p := core.Icelake()
	p.FetchQueueEntries = 7
	wp := WithParams(BaselineDesign(NameBaseline, 4096), "custom", p)
	cfg = core.Config{}
	wp.Mod(&cfg)
	if cfg.Params.FetchQueueEntries != 7 {
		t.Error("WithParams did not apply parameters")
	}
	if wp.Name != "custom" {
		t.Errorf("WithParams name = %q", wp.Name)
	}

	// Wrappers compose: both Mods fire.
	both := WithPerfectDirection(WithReturnsInBTB(BaselineDesign(NameBaseline, 4096)))
	cfg = core.Config{}
	both.Mod(&cfg)
	if !cfg.PerfectDirection || !cfg.StoreReturnsInBTB {
		t.Error("wrapper composition lost a Mod")
	}
}

func TestTwoLevelDesignConstructs(t *testing.T) {
	for _, pdedeL1 := range []bool{false, true} {
		d := TwoLevelDesign("2l", 256, pdedeL1)
		tp, err := d.New()
		if err != nil {
			t.Fatal(err)
		}
		if tp.Name() == "" {
			t.Error("unnamed two-level design")
		}
	}
}

// TestDiffDesignsCoverEveryDesign is the registry witness. Every exported
// type in a design package that declares a Lookup method must be the
// dynamic type of some DiffDesigns predictor, and every DiffDesigns
// predictor must implement btb.Auditable, so that `make check-deep`, the
// oracle tests and the periodic audits reach every design. There is no
// exemption: a wrapper audits by delegating, as multilevel.TwoLevel does.
// TestDesignConstructors cannot take DiffDesigns as one more set, because
// perfect-btb reports zero storage.
func TestDiffDesignsCoverEveryDesign(t *testing.T) {
	registered := map[string]bool{}
	for _, d := range DiffDesigns() {
		tp, err := d.New()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if _, ok := tp.(btb.Auditable); !ok {
			t.Errorf("%s: %T does not implement btb.Auditable", d.Name, tp)
		}
		registered[designTypeKey(reflect.TypeOf(tp))] = true
	}

	// The directories, relative to this package, that declare designs.
	dirs := []string{"../btb", "../pdede", "../shotgun", "../multilevel"}
	fset := token.NewFileSet()
	var scanned []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "Lookup" {
					continue
				}
				if name := recvTypeName(fn.Recv.List[0].Type); ast.IsExported(name) {
					scanned = append(scanned, f.Name.Name+"."+name)
				}
			}
		}
	}
	if len(scanned) == 0 {
		t.Fatalf("no type declares Lookup under %v", dirs)
	}
	for _, name := range scanned {
		if !registered[name] {
			t.Errorf("%s declares Lookup but no DiffDesigns design builds it: register it so the oracle sweep covers it", name)
		}
	}
	t.Logf("design types: %v", scanned)
}

// recvTypeName returns the type name of a method receiver expression,
// through a pointer and type parameters.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// designTypeKey names a predictor's dynamic type as the scan does:
// package name, dot, type name.
func designTypeKey(t reflect.Type) string {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return path.Base(t.PkgPath()) + "." + t.Name()
}
