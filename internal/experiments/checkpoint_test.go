package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ckptMeta is the common sweep identity used by the checkpoint tests.
func ckptMeta() CheckpointMeta {
	return CheckpointMeta{TotalInstrs: 1000, WarmupInstrs: 100}
}

func TestCheckpointMissingFileIsEmpty(t *testing.T) {
	c, err := LoadCheckpoint(filepath.Join(t.TempDir(), "none.ckpt"), ckptMeta())
	if err != nil {
		t.Fatal(err)
	}
	if c.Apps() != 0 {
		t.Errorf("empty checkpoint has %d apps", c.Apps())
	}
	if _, ok := c.Done("a", "d"); ok {
		t.Error("empty checkpoint reported a done pair")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.ckpt")
	c, err := LoadCheckpoint(path, ckptMeta())
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{App: "a", Design: "d", Instructions: 900, Cycles: 450}
	if err := c.Record("a", map[string]*core.Result{"d": res}); err != nil {
		t.Fatal(err)
	}
	// Merging a second design must preserve the first.
	if err := c.Record("a", map[string]*core.Result{"d2": {App: "a", Design: "d2"}}); err != nil {
		t.Fatal(err)
	}

	c2, err := LoadCheckpoint(path, ckptMeta())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Done("a", "d")
	if !ok {
		t.Fatal("pair (a, d) lost across reload")
	}
	if got.IPC() != res.IPC() || got.Instructions != res.Instructions {
		t.Errorf("restored result %+v differs from %+v", got, res)
	}
	if _, ok := c2.Done("a", "d2"); !ok {
		t.Error("pair (a, d2) lost across reload")
	}
}

// TestCheckpointConcurrentRecordAndDone is the race witness for the
// checkpoint's lock. The runner's app goroutines call Done and Record on
// one checkpoint at once, as here. Record holds c.mu through its file
// write, so under -race a Done that skips the lock reads the maps while
// another app's insert is unordered with the read.
func TestCheckpointConcurrentRecordAndDone(t *testing.T) {
	c, err := LoadCheckpoint(filepath.Join(t.TempDir(), "race.ckpt"), ckptMeta())
	if err != nil {
		t.Fatal(err)
	}
	const apps, designs = 4, 4
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(app string) {
			defer wg.Done()
			for d := 0; d < designs; d++ {
				design := fmt.Sprintf("d%d", d)
				if _, ok := c.Done(app, design); ok {
					t.Errorf("%s/%s is done before its Record", app, design)
				}
				if err := c.Record(app, map[string]*core.Result{design: {App: app, Design: design}}); err != nil {
					t.Error(err)
				}
			}
		}(fmt.Sprintf("app%d", a))
	}
	wg.Wait()
	if c.Apps() != apps {
		t.Errorf("%d apps recorded, want %d", c.Apps(), apps)
	}
	for a := 0; a < apps; a++ {
		for d := 0; d < designs; d++ {
			if _, ok := c.Done(fmt.Sprintf("app%d", a), fmt.Sprintf("d%d", d)); !ok {
				t.Errorf("app%d/d%d lost", a, d)
			}
		}
	}
}

func TestCheckpointWindowMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "win.ckpt")
	c, _ := LoadCheckpoint(path, ckptMeta())
	if err := c.Record("a", map[string]*core.Result{"d": {}}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, CheckpointMeta{TotalInstrs: 2000, WarmupInstrs: 100}); err == nil {
		t.Error("mismatched TotalInstrs accepted")
	}
	if _, err := LoadCheckpoint(path, CheckpointMeta{TotalInstrs: 1000, WarmupInstrs: 200}); err == nil {
		t.Error("mismatched WarmupInstrs accepted")
	}
}

// The same design name recorded under a different configuration digest must
// refuse to resume: silently mixing results from two shapes of "b256"
// would corrupt the suite's science.
func TestCheckpointDesignChangeRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "design.ckpt")
	meta := ckptMeta()
	meta.Designs = DesignDigests([]Design{BaselineDesign("b", 256)})
	c, err := LoadCheckpoint(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Record("a", map[string]*core.Result{"b": {}}); err != nil {
		t.Fatal(err)
	}

	// Same name, same config: resume is fine.
	if _, err := LoadCheckpoint(path, meta); err != nil {
		t.Fatalf("unchanged design rejected: %v", err)
	}
	// Same name, different entry count: resume must be refused.
	changed := ckptMeta()
	changed.Designs = DesignDigests([]Design{BaselineDesign("b", 512)})
	if _, err := LoadCheckpoint(path, changed); err == nil || !strings.Contains(err.Error(), "design b") {
		t.Errorf("changed design accepted: %v", err)
	}

	// When many designs changed, the refusal names the first in name
	// order on every load, whatever order the digest map iterates in.
	var before, after []Design
	for i := 0; i < 16; i++ {
		before = append(before, BaselineDesign(fmt.Sprintf("d%02d", i), 256))
		after = append(after, BaselineDesign(fmt.Sprintf("d%02d", i), 512))
	}
	path = filepath.Join(t.TempDir(), "many.ckpt")
	meta.Designs = DesignDigests(before)
	if c, err = LoadCheckpoint(path, meta); err != nil {
		t.Fatal(err)
	}
	if err := c.Record("a", map[string]*core.Result{"d00": {}}); err != nil {
		t.Fatal(err)
	}
	changed.Designs = DesignDigests(after)
	for i := 0; i < 8; i++ {
		if _, err := LoadCheckpoint(path, changed); err == nil || !strings.Contains(err.Error(), "design d00 ") {
			t.Fatalf("load %d: %v, want design d00 named", i, err)
		}
	}
}

// Different experiments run disjoint design sets against one checkpoint
// path; only overlapping names are validated, and new digests merge in.
func TestCheckpointDisjointDesignsMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "merge.ckpt")
	m1 := ckptMeta()
	m1.Designs = DesignDigests([]Design{BaselineDesign("x", 256)})
	c, _ := LoadCheckpoint(path, m1)
	if err := c.Record("a", map[string]*core.Result{"x": {}}); err != nil {
		t.Fatal(err)
	}

	m2 := ckptMeta()
	m2.Designs = DesignDigests([]Design{BaselineDesign("y", 512)})
	c2, err := LoadCheckpoint(path, m2)
	if err != nil {
		t.Fatalf("disjoint design set rejected: %v", err)
	}
	if err := c2.Record("a", map[string]*core.Result{"y": {}}); err != nil {
		t.Fatal(err)
	}

	// A third load sees both digests, so changing x is still caught.
	bad := ckptMeta()
	bad.Designs = DesignDigests([]Design{BaselineDesign("x", 1024)})
	if _, err := LoadCheckpoint(path, bad); err == nil {
		t.Error("changed design accepted after digest merge")
	}
}

func TestDesignDigestsDistinguishConfigs(t *testing.T) {
	d1 := DesignDigests([]Design{BaselineDesign("b", 256)})["b"]
	d2 := DesignDigests([]Design{BaselineDesign("b", 512)})["b"]
	if d1 == d2 {
		t.Error("digest identical across entry counts")
	}
	// Mod hooks (core-config changes) must alter the digest too.
	plain := BaselineDesign("b", 256)
	perf := WithPerfectDirection(BaselineDesign("b", 256))
	perf.Name = "b" // same name, different core config
	if DesignDigests([]Design{plain})["b"] == DesignDigests([]Design{perf})["b"] {
		t.Error("digest identical across Mod hooks")
	}
	// A crashing constructor digests as name-only instead of panicking.
	boom := Design{Name: "boom", New: func() (btb.TargetPredictor, error) { panic("nope") }}
	if got := DesignDigests([]Design{boom})["boom"]; got == "" {
		t.Error("panicking constructor produced no digest")
	}
}

func TestCheckpointCorruptFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, ckptMeta()); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt file error = %v", err)
	}
}

// Every Record leaves a complete, parseable document behind (the
// write-temp-then-rename contract), and no temp litter. A reader that holds
// the previous document open while a Record replaces it still reads that
// document whole.
func TestCheckpointAtomicFlush(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "atomic.ckpt")
	c, _ := LoadCheckpoint(path, ckptMeta())
	for i, app := range []string{"a", "b", "c"} {
		old, _ := os.ReadFile(path)
		var held *os.File
		if i > 0 {
			var err error
			if held, err = os.Open(path); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Record(app, map[string]*core.Result{"d": {}}); err != nil {
			t.Fatal(err)
		}
		if held != nil {
			got, err := io.ReadAll(held)
			held.Close()
			if err != nil || !bytes.Equal(got, old) {
				t.Fatalf("record %d: a reader holding the previous checkpoint open read %d bytes (err %v), want its %d", i, len(got), err, len(old))
			}
		}
		c2, err := LoadCheckpoint(path, ckptMeta())
		if err != nil {
			t.Fatalf("after record %d: %v", i, err)
		}
		if c2.Apps() != i+1 {
			t.Fatalf("after record %d: %d apps persisted", i, c2.Apps())
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir holds %d entries, want just the checkpoint", len(entries))
	}
}

// TestCheckpointFlushOrderIndependent is the regression test for the
// sequential-runner assumption the parallel executor broke: apps now
// finish — and Record — in scheduler order, not catalog order, so the
// on-disk document must be a pure function of the recorded *set*. That is
// enforced twice in flushLocked: app entries are emitted in sorted name
// order, and each entry's design map is serialized by encoding/json,
// which sorts map keys. Two checkpoints fed the same records in opposite,
// interleaved orders must therefore be byte-identical.
func TestCheckpointFlushOrderIndependent(t *testing.T) {
	dir := t.TempDir()
	res := func(app, design string, cyc float64) map[string]*core.Result {
		return map[string]*core.Result{design: {App: app, Design: design, Instructions: 900, Cycles: cyc}}
	}
	record := func(t *testing.T, c *Checkpoint, app, design string, cyc float64) {
		t.Helper()
		if err := c.Record(app, res(app, design, cyc)); err != nil {
			t.Fatal(err)
		}
	}

	fwd, err := LoadCheckpoint(filepath.Join(dir, "fwd.ckpt"), ckptMeta())
	if err != nil {
		t.Fatal(err)
	}
	record(t, fwd, "alpha", "d1", 100)
	record(t, fwd, "alpha", "d2", 110)
	record(t, fwd, "beta", "d1", 200)
	record(t, fwd, "gamma", "d2", 310)

	rev, err := LoadCheckpoint(filepath.Join(dir, "rev.ckpt"), ckptMeta())
	if err != nil {
		t.Fatal(err)
	}
	record(t, rev, "gamma", "d2", 310)
	record(t, rev, "beta", "d1", 200)
	record(t, rev, "alpha", "d2", 110)
	record(t, rev, "alpha", "d1", 100)

	a, err := os.ReadFile(filepath.Join(dir, "fwd.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "rev.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("flush order leaked into the checkpoint document:\nfwd:\n%s\nrev:\n%s", a, b)
	}

	// With many apps, the document lists them in name order. The first 31
	// go straight into the map, so one Record flushes them all.
	many, err := LoadCheckpoint(filepath.Join(dir, "many.ckpt"), ckptMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 31; i > 0; i-- {
		many.done[fmt.Sprintf("app-%02d", i)] = res("", "d1", float64(i))
	}
	record(t, many, "app-00", "d1", 0)
	data, err := os.ReadFile(filepath.Join(dir, "many.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var apps []string
	for _, e := range f.Apps {
		apps = append(apps, e.App)
	}
	if len(apps) != 32 || !slices.IsSorted(apps) {
		t.Errorf("checkpoint lists %d apps, want all 32 in name order: %v", len(apps), apps)
	}
}

// TestPinnedSuiteCheckpointRestores pins the suite checkpoint format:
// testdata/pinned.ckpt was written by an earlier runner under tinyOpts over
// tinyCatalog(2) and tinyDesigns. A run with the same options restores
// every app from it without building a trace, and a later Record rewrites
// it as a file this build loads back.
func TestPinnedSuiteCheckpointRestores(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "pinned.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned checkpointFile
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]map[string]*core.Result, len(pinned.Apps))
	for _, e := range pinned.Apps {
		want[e.App] = e.Designs
	}
	path := filepath.Join(t.TempDir(), "pinned.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := tinyOpts(tinyCatalog(2))
	opts.CheckpointPath = path
	opts.BuildTrace = func(app workload.Config, _ uint64) (trace.Source, error) {
		t.Errorf("%s: trace built, want a checkpoint restore", app.Name)
		return nil, errors.New("restored app built a trace")
	}
	suite, err := NewRunner(opts).Run(tinyDesigns())
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Apps) != len(want) {
		t.Fatalf("suite has %d apps, the pinned checkpoint %d", len(suite.Apps), len(want))
	}
	for i := range suite.Apps {
		a := &suite.Apps[i]
		if !a.Skipped || a.Err != nil {
			t.Errorf("%s: skipped=%v err=%v, want a checkpoint restore", a.App.Name, a.Skipped, a.Err)
		}
		if !reflect.DeepEqual(a.Results, want[a.App.Name]) {
			t.Errorf("%s: restored results differ from the pinned ones", a.App.Name)
		}
	}

	meta := CheckpointMeta{TotalInstrs: opts.TotalInstrs, WarmupInstrs: opts.WarmupInstrs, Designs: DesignDigests(tinyDesigns())}
	c, err := LoadCheckpoint(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Record(suite.Apps[0].App.Name, suite.Apps[0].Results); err != nil {
		t.Fatal(err)
	}
	c, err = LoadCheckpoint(path, meta)
	if err != nil {
		t.Fatalf("rewritten checkpoint does not load: %v", err)
	}
	for app, designs := range want {
		for name, res := range designs {
			if got, ok := c.Done(app, name); !ok || !reflect.DeepEqual(got, res) {
				t.Errorf("(%s, %s) differs after the rewrite", app, name)
			}
		}
	}
}
