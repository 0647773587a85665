package workload

import (
	"fmt"

	"repro/internal/rng"
)

// The catalog mirrors Table 1 of the paper: 102 frontend-bound applications
// across four categories (Server 61, Browser 20, BP 11, Personal 10). The
// paper anonymizes its suite; here every app is a procedurally generated
// configuration drawn from category-specific parameter ranges, with a few
// hand-tuned members reproducing the specific applications the paper calls
// out in §5.2 (Javascript static analyzer, Animation, Data Analytics,
// Microservices/OLTP, HTML5-rendering, Imaging).

// catRange bounds the procedural parameters of one category.
type catRange struct {
	category       Category
	count          int
	prefix         []string
	branchesLo     int // static branch sites
	branchesHi     int
	indirectLo     float64
	indirectHi     float64
	samePageLo     float64
	samePageHi     float64
	hotThetaLo     float64
	hotThetaHi     float64
	tripLo, tripHi int
	cpiLo, cpiHi   float64
}

var catRanges = []catRange{
	{
		category: Server, count: 61,
		prefix:     []string{"oltp", "webtraffic", "cloudsvc", "microservice", "rpc", "kvstore"},
		branchesLo: 18000, branchesHi: 52000,
		indirectLo: 0.12, indirectHi: 0.24,
		samePageLo: 0.66, samePageHi: 0.84,
		hotThetaLo: 0.10, hotThetaHi: 0.40,
		tripLo: 2, tripHi: 6,
		cpiLo: 0.40, cpiHi: 0.60,
	},
	{
		category: Browser, count: 20,
		prefix:     []string{"html5", "javascript", "jvm", "wasm", "game", "imgrender"},
		branchesLo: 10000, branchesHi: 30000,
		indirectLo: 0.18, indirectHi: 0.30,
		samePageLo: 0.70, samePageHi: 0.88,
		hotThetaLo: 0.15, hotThetaHi: 0.50,
		tripLo: 2, tripHi: 5,
		cpiLo: 0.38, cpiHi: 0.55,
	},
	{
		category: BusinessProductivity, count: 11,
		prefix:     []string{"compress", "email", "slides", "sheet", "docproc"},
		branchesLo: 7000, branchesHi: 18000,
		indirectLo: 0.10, indirectHi: 0.20,
		samePageLo: 0.72, samePageHi: 0.90,
		hotThetaLo: 0.20, hotThetaHi: 0.55,
		tripLo: 3, tripHi: 8,
		cpiLo: 0.42, cpiHi: 0.62,
	},
	{
		category: Personal, count: 10,
		prefix:     []string{"mail", "imgedit", "game", "video"},
		branchesLo: 6000, branchesHi: 15000,
		indirectLo: 0.10, indirectHi: 0.22,
		samePageLo: 0.70, samePageHi: 0.88,
		hotThetaLo: 0.20, hotThetaHi: 0.55,
		tripLo: 3, tripHi: 8,
		cpiLo: 0.40, cpiHi: 0.60,
	},
}

func lerp(lo, hi, u float64) float64 { return lo + (hi-lo)*u }

// appFromRange draws one deterministic configuration from a category range.
func appFromRange(cr catRange, idx int) Config {
	r := rng.New(0xC0FFEE + uint64(cr.category)<<32 + uint64(idx))
	cfg := Default()
	cfg.Category = cr.category
	cfg.Name = fmt.Sprintf("%s-%s-%02d", cr.category, cr.prefix[idx%len(cr.prefix)], idx)
	cfg.Seed = r.Uint64()
	cfg.StaticBranches = cr.branchesLo + r.Intn(cr.branchesHi-cr.branchesLo+1)
	cfg.IndirectFrac = lerp(cr.indirectLo, cr.indirectHi, r.Float64())
	cfg.SamePageBias = lerp(cr.samePageLo, cr.samePageHi, r.Float64())
	cfg.HotTheta = lerp(cr.hotThetaLo, cr.hotThetaHi, r.Float64())
	cfg.TripMean = r.Range(cr.tripLo, cr.tripHi)
	cfg.BackendCPI = lerp(cr.cpiLo, cr.cpiHi, r.Float64())
	cfg.LoopFrac = lerp(0.10, 0.18, r.Float64())
	cfg.CallFrac = lerp(0.55, 0.75, r.Float64())
	cfg.ShareTargets = lerp(0.25, 0.45, r.Float64())
	cfg.CrossRegionCallFrac = lerp(0.05, 0.15, r.Float64())
	cfg.BlockLenMean = r.Range(5, 8)
	cfg.DispatchInstrs = r.Range(900, 2000)
	cfg.PageSpread = lerp(1.3, 2.4, r.Float64())
	return cfg
}

// Catalog returns the full 102-application suite. Entries are deterministic:
// calling Catalog twice yields identical configurations.
func Catalog() []Config {
	var apps []Config
	for _, cr := range catRanges {
		for i := 0; i < cr.count; i++ {
			apps = append(apps, appFromRange(cr, i))
		}
	}
	applySpecials(apps)
	return apps
}

// applySpecials tunes the named applications the paper discusses.
func applySpecials(apps []Config) {
	find := func(name string) *Config {
		for i := range apps {
			if apps[i].Name == name {
				return &apps[i]
			}
		}
		panic("workload: special app not in catalog: " + name)
	}

	// Javascript static analyzer (§5.2): hot working set slightly exceeds
	// the baseline BTB but fits comfortably in PDede's larger effective
	// capacity → near-complete MPKI elimination, largest IPC gain.
	js := find("Browser-javascript-01")
	js.Name = "Browser-js-static-analyzer"
	js.StaticBranches = 14000
	js.HotTheta = 0.20 // flat profile: everything is warm
	js.SamePageBias = 0.82
	js.IndirectFrac = 0.06
	js.TripMean = 4
	js.BackendCPI = 0.36

	// Animation (§5.2): 2.3× larger page footprint than the JS analyzer;
	// hot set exceeds even PDede's resources → limited gain.
	an := find("Personal-game-02")
	an.Name = "Personal-animation"
	an.StaticBranches = 52000
	an.HotTheta = 0.30
	an.SamePageBias = 0.62
	an.TripMean = 3

	// Data Analytics (§5.2): ~90% same-page branches; Multi-Target packs
	// its targets especially well.
	da := find("Server-kvstore-05")
	da.Name = "Server-data-analytics"
	da.SamePageBias = 0.97
	da.LoopFrac = 0.30
	da.TripMean = 6

	// Microservices & OLTP (§5.2): only ~50% same-page; exercise the
	// Region/Page-BTB path.
	ms := find("Server-microservice-03")
	ms.Name = "Server-microservices-hub"
	ms.SamePageBias = 0.40
	ms.CrossRegionCallFrac = 0.20
	ms.LoopFrac = 0.08
	ms.TripMean = 3
	ms.CallFrac = 0.72
	ol := find("Server-oltp-00")
	ol.Name = "Server-oltp-primary"
	ol.SamePageBias = 0.42
	ol.CrossRegionCallFrac = 0.18
	ol.LoopFrac = 0.08
	ol.TripMean = 3
	ol.CallFrac = 0.72

	// HTML5 rendering (§5.2): dense target sharing (>15 targets/page,
	// >2K/region) maximizing dedup efficiency.
	ht := find("Browser-html5-00")
	ht.Name = "Browser-html5-render"
	ht.ShareTargets = 0.50
	ht.PagesPerRegion = 160

	// Imaging (§5.2): >18% IPC gains.
	im := find("Browser-imgrender-05")
	im.Name = "Browser-imaging"
	im.StaticBranches = 12000
	im.HotTheta = 0.45

	// Wasm browser app used for the Fig 5 runtime plot.
	wa := find("Browser-wasm-03")
	wa.Name = "Browser-wasm-runtime"
	wa.PagesPerRegion = 150
	wa.PageSpread = 2.2

	// JITed server applications (§5.8): large footprints that still profit
	// at 16K-entry BTBs.
	for i, name := range []string{"Server-cloudsvc-02", "Server-rpc-04"} {
		j := find(name)
		j.Name = fmt.Sprintf("Server-jit-backend-%d", i)
		j.StaticBranches = 60000
		j.HotTheta = 0.45
	}
}

// CatalogByName returns the named app from the catalog.
func CatalogByName(name string) (Config, bool) {
	for _, c := range Catalog() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}
