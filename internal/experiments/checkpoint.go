package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/atomicio"
	"repro/internal/core"
)

// checkpointVersion guards the on-disk schema. Version 2 added the
// per-design configuration digests. Files written by earlier builds also
// carry a "seed" key, which loading ignores, so they still resume.
const checkpointVersion = 2

// checkpointFile is the JSON document persisted between runs. Results are
// keyed by (app, design); the window options and design digests are stored
// so a checkpoint is never silently reused for a differently-scaled or
// differently-configured sweep.
type checkpointFile struct {
	Version      int               `json:"version"`
	TotalInstrs  uint64            `json:"total_instrs"`
	WarmupInstrs uint64            `json:"warmup_instrs"`
	Designs      map[string]string `json:"design_digests,omitempty"`
	Apps         []checkpointEntry `json:"apps"`
}

type checkpointEntry struct {
	App     string                  `json:"app"`
	Designs map[string]*core.Result `json:"designs"`
}

// CheckpointMeta identifies the sweep a checkpoint belongs to. A resume is
// only valid when every field recorded in the file is compatible: equal
// windows, and — for each design name the file has seen before — an equal
// configuration digest. Designs the file has not seen are merged in, so
// experiments sharing a design set can share one checkpoint.
type CheckpointMeta struct {
	TotalInstrs  uint64
	WarmupInstrs uint64
	// Designs maps design name → configuration digest (see DesignDigests).
	Designs map[string]string
}

// DesignDigests fingerprints each design's observable configuration: the
// predictor it constructs (self-reported name and storage footprint) and
// the core-config modifications it applies. Checkpoints persist these so a
// resume after a design changed shape under an unchanged name is rejected
// instead of silently mixing stale results with fresh ones. A constructor
// that errors or panics digests as name-only (the run itself surfaces the
// failure).
func DesignDigests(designs []Design) map[string]string {
	out := make(map[string]string, len(designs))
	for i := range designs {
		out[designs[i].Name] = designDigest(&designs[i])
	}
	return out
}

func designDigest(d *Design) string {
	h := fnv.New64a()
	io.WriteString(h, d.Name)
	func() {
		defer func() { recover() }()
		tp, err := d.New()
		if err != nil || tp == nil {
			return
		}
		fmt.Fprintf(h, "|btb=%s/%d", tp.Name(), tp.StorageBits())
	}()
	if d.Mod != nil {
		func() {
			defer func() { recover() }()
			cfg := core.Config{Params: core.Icelake()}
			d.Mod(&cfg)
			// dir is always false now that a config cannot carry its own
			// direction predictor; it stays so older checkpoints resume.
			fmt.Fprintf(h, "|params=%+v|cpi=%g|perfdir=%t|ittage=%t|dir=false|rets=%t|pipe=%t|measure=%d",
				cfg.Params, cfg.BackendCPI, cfg.PerfectDirection, cfg.ITTAGE != nil,
				cfg.StoreReturnsInBTB, cfg.UsePipeline, cfg.MeasureInstrs)
		}()
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Checkpoint stores completed (app, design) results between suite runs so
// an interrupted or partially-failed sweep resumes instead of restarting.
// Every Record rewrites the whole file via write-temp-then-rename, so the
// file on disk is always a complete, parseable document.
type Checkpoint struct {
	path string
	meta CheckpointMeta

	mu sync.Mutex // guards the fields below; flushLocked needs it held
	// designs maps design name → config digest, across runs.
	designs map[string]string
	// done maps app → design → result; Record and Done race from workers.
	done map[string]map[string]*core.Result
}

// LoadCheckpoint opens (or initializes) the checkpoint at path for the
// sweep identified by meta. A missing file is an empty checkpoint; an
// existing file recorded under different windows, or with a different
// digest for a design name this sweep also uses, is an error, since its
// results would not be comparable.
func LoadCheckpoint(path string, meta CheckpointMeta) (*Checkpoint, error) {
	c := &Checkpoint{
		path:    path,
		meta:    meta,
		designs: make(map[string]string, len(meta.Designs)),
		done:    make(map[string]map[string]*core.Result),
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		for name, dig := range meta.Designs {
			c.designs[name] = dig
		}
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("checkpoint %s: corrupt file: %w", path, err)
	}
	if f.Version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint %s: version %d, want %d (delete it to start over)", path, f.Version, checkpointVersion)
	}
	if f.TotalInstrs != meta.TotalInstrs || f.WarmupInstrs != meta.WarmupInstrs {
		return nil, fmt.Errorf("checkpoint %s: recorded for %d/%d instr windows, this run uses %d/%d (delete it or match the options)",
			path, f.TotalInstrs, f.WarmupInstrs, meta.TotalInstrs, meta.WarmupInstrs)
	}
	for name, dig := range f.Designs {
		c.designs[name] = dig
	}
	names := make([]string, 0, len(meta.Designs))
	for name := range meta.Designs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dig := meta.Designs[name]
		if old, ok := c.designs[name]; ok && old != dig {
			return nil, fmt.Errorf("checkpoint %s: design %s changed configuration since the checkpoint was written (delete it to re-run)",
				path, name)
		}
		c.designs[name] = dig
	}
	for _, e := range f.Apps {
		if len(e.Designs) > 0 {
			c.done[e.App] = e.Designs
		}
	}
	return c, nil
}

// Done returns the persisted result for an (app, design) pair.
func (c *Checkpoint) Done(app, design string) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.done[app][design]
	return res, ok
}

// Apps returns the number of apps with at least one persisted result.
func (c *Checkpoint) Apps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Record merges an app's completed design results (possibly partial, if
// the app failed midway) and flushes the checkpoint atomically.
func (c *Checkpoint) Record(app string, results map[string]*core.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.done[app]
	if m == nil {
		m = make(map[string]*core.Result, len(results))
		c.done[app] = m
	}
	for d, res := range results {
		m[d] = res
	}
	return c.flushLocked()
}

// flushLocked writes the full document through atomicio, so readers and
// crashed runs never observe a half-written checkpoint.
func (c *Checkpoint) flushLocked() error {
	f := checkpointFile{
		Version:      checkpointVersion,
		TotalInstrs:  c.meta.TotalInstrs,
		WarmupInstrs: c.meta.WarmupInstrs,
		Designs:      c.designs,
	}
	apps := make([]string, 0, len(c.done))
	for app := range c.done {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		f.Apps = append(f.Apps, checkpointEntry{App: app, Designs: c.done[app]})
	}
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := atomicio.WriteFile(c.path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
