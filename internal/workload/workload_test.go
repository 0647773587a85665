package workload

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.StaticBranches = 10 },
		func(c *Config) { c.SitesPerFunc = 1 },
		func(c *Config) { c.CondFrac = 1.5 },
		func(c *Config) { c.SamePageBias = -0.1 },
		func(c *Config) { c.BiasTakenFrac = 0.8; c.BiasNotFrac = 0.5 },
		func(c *Config) { c.TripMean = 0 },
		func(c *Config) { c.BackendCPI = 0 },
		func(c *Config) { c.HotTheta = 3 },
		func(c *Config) { c.PageSpread = 0.5 },
		func(c *Config) { c.MaxCallDepth = 0 },
	}
	for i, m := range mut {
		c := Default()
		m(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestProgramStructure(t *testing.T) {
	cfg := Default()
	cfg.StaticBranches = 2000
	p, err := NewProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) != cfg.NumFunctions() {
		t.Errorf("funcs = %d, want %d", len(p.Funcs), cfg.NumFunctions())
	}
	if len(p.RegionIDs) < 3 {
		t.Errorf("too few regions: %d", len(p.RegionIDs))
	}
	for _, f := range p.Funcs {
		if len(f.Sites) < 2 {
			t.Fatalf("func %d has %d sites", f.Index, len(f.Sites))
		}
		prevEnd := f.Entry
		for i, s := range f.Sites {
			if s.BlockStart != prevEnd {
				t.Fatalf("func %d site %d: blocks not contiguous", f.Index, i)
			}
			if s.PC != s.BlockStart.Add(uint64(s.BlockLen-1)*isa.InstrBytes) {
				t.Fatalf("func %d site %d: PC/BlockStart/BlockLen inconsistent", f.Index, i)
			}
			if s.Kind == isa.CondDirect && s.LoopTo >= 0 {
				if s.LoopTo >= i {
					t.Fatalf("func %d site %d: loop target %d not backward", f.Index, i, s.LoopTo)
				}
				if s.Target != f.Sites[s.LoopTo].BlockStart {
					t.Fatalf("func %d site %d: loop target address mismatch", f.Index, i)
				}
			}
			if s.Kind == isa.UncondDirect && s.SkipTo >= 0 && s.SkipTo <= i {
				t.Fatalf("func %d site %d: uncond skip not forward", f.Index, i)
			}
			if s.Kind == isa.IndirectJump {
				if len(s.JumpTo) < 2 {
					t.Fatalf("func %d site %d: indirect jump with %d targets", f.Index, i, len(s.JumpTo))
				}
				for k, j := range s.JumpTo {
					if j <= i {
						t.Fatalf("func %d site %d: indirect dest %d not forward", f.Index, i, j)
					}
					if s.JumpTargets[k] != f.Sites[j].BlockStart {
						t.Fatalf("func %d site %d: indirect dest address mismatch", f.Index, i)
					}
				}
			}
			if s.Kind == isa.DirectCall {
				if s.Callee < 0 || s.Callee >= len(p.Funcs) {
					t.Fatalf("func %d site %d: bad callee %d", f.Index, i, s.Callee)
				}
				if s.Target != p.Funcs[s.Callee].Entry {
					t.Fatalf("func %d site %d: call target mismatch", f.Index, i)
				}
			}
			if s.Kind == isa.IndirectCall && len(s.Callees) < 2 {
				t.Fatalf("func %d site %d: indirect call with %d callees", f.Index, i, len(s.Callees))
			}
			prevEnd = s.PC.Add(isa.InstrBytes)
		}
		if f.RetPC.Add(isa.InstrBytes*uint64(f.RetBlockLen-1)) == f.Entry {
			t.Fatalf("func %d: degenerate return placement", f.Index)
		}
	}
}

func TestProgramDeterminism(t *testing.T) {
	cfg := Default()
	cfg.StaticBranches = 1500
	p1, err := NewProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewProgram(cfg)
	if !reflect.DeepEqual(p1.RegionIDs, p2.RegionIDs) {
		t.Error("region ids differ between identical builds")
	}
	for i := range p1.Funcs {
		if !reflect.DeepEqual(p1.Funcs[i], p2.Funcs[i]) {
			t.Fatalf("func %d differs between identical builds", i)
		}
	}
}

func TestExecuteDeterminism(t *testing.T) {
	cfg := Default()
	cfg.StaticBranches = 1500
	_, t1, err := Build(cfg, 50000)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, _ := Build(cfg, 50000)
	if len(t1.Records) != len(t2.Records) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1.Records), len(t2.Records))
	}
	for i := range t1.Records {
		if t1.Records[i] != t2.Records[i] {
			t.Fatalf("records differ at %d", i)
		}
	}
}

func TestExecuteBudget(t *testing.T) {
	cfg := Default()
	cfg.StaticBranches = 1500
	_, tr, err := Build(cfg, 100000)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Instructions()
	if got < 100000 || got > 120000 {
		t.Errorf("instructions = %d, want ≈100000 (small overshoot allowed)", got)
	}
}

func TestTraceWellFormed(t *testing.T) {
	cfg := Default()
	cfg.StaticBranches = 2000
	_, tr, err := Build(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	depth := 0
	for i, b := range tr.Records {
		if err := b.Validate(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if b.Kind.IsCall() {
			depth++
		}
		if b.Kind.IsReturn() {
			depth--
		}
		if depth < 0 {
			t.Fatalf("record %d: more returns than calls", i)
		}
		// Indirect jumps may legitimately dispatch to the fallthrough case;
		// other unconditional flow must actually go somewhere else.
		if b.Taken && b.Target == b.Fallthrough() &&
			b.Kind != isa.CondDirect && b.Kind != isa.IndirectJump {
			t.Fatalf("record %d: degenerate unconditional target", i)
		}
	}
}

// Calls and returns must pair so the RAS predicts returns well.
func TestCallReturnPairing(t *testing.T) {
	cfg := Default()
	cfg.StaticBranches = 2000
	_, tr, err := Build(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	var stack []uint64
	matched, total := 0, 0
	for _, b := range tr.Records {
		if b.Kind.IsCall() {
			stack = append(stack, uint64(b.PC)+isa.InstrBytes)
		}
		if b.Kind.IsReturn() {
			total++
			if len(stack) > 0 {
				if uint64(b.Target) == stack[len(stack)-1] {
					matched++
				}
				stack = stack[:len(stack)-1]
			}
		}
	}
	if total == 0 {
		t.Fatal("no returns in trace")
	}
	if frac := float64(matched) / float64(total); frac < 0.99 {
		t.Errorf("only %.2f of returns match call stack", frac)
	}
}

func TestCatalogShape(t *testing.T) {
	apps := Catalog()
	if len(apps) != 102 {
		t.Fatalf("catalog has %d apps, want 102", len(apps))
	}
	counts := map[Category]int{}
	names := map[string]bool{}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Errorf("app %s invalid: %v", a.Name, err)
		}
		if names[a.Name] {
			t.Errorf("duplicate app name %s", a.Name)
		}
		names[a.Name] = true
		counts[a.Category]++
	}
	want := map[Category]int{Server: 61, Browser: 20, BusinessProductivity: 11, Personal: 10}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("category counts = %v, want %v", counts, want)
	}
}

func TestCatalogDeterminism(t *testing.T) {
	a, b := Catalog(), Catalog()
	if !reflect.DeepEqual(a, b) {
		t.Error("catalog not deterministic")
	}
}

func TestCatalogSpecials(t *testing.T) {
	for _, name := range []string{
		"Browser-js-static-analyzer", "Personal-animation",
		"Server-data-analytics", "Server-microservices-hub",
		"Server-oltp-primary", "Browser-html5-render",
		"Browser-imaging", "Browser-wasm-runtime",
	} {
		if _, ok := CatalogByName(name); !ok {
			t.Errorf("special app %s missing", name)
		}
	}
	if _, ok := CatalogByName("no-such-app"); ok {
		t.Error("CatalogByName invented an app")
	}
}

func TestCatalogCategory(t *testing.T) {
	got := 0
	for _, c := range Catalog() {
		if c.Category == Browser {
			got++
		}
	}
	if got != 20 {
		t.Errorf("browser apps = %d, want 20", got)
	}
}
