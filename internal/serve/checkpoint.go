package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/atomicio"
	"repro/internal/trace"
)

// checkpointVersion is bumped whenever the schema or the journal encoding
// changes incompatibly.
const checkpointVersion = 1

// checkpointFile is one tenant's durable state: the journal (its PDT1
// stream, base64 inside JSON) plus the exactly-once watermark and health
// counters. The simulator itself is never serialized — replaying the
// journal through a fresh session reproduces it bit-identically, and
// ResultDigest proves it did.
type checkpointFile struct {
	Version      int    `json:"version"`
	ConfigDigest string `json:"config_digest"`
	Tenant       string `json:"tenant"`
	NextSeq      uint64 `json:"next_seq"`
	Crashes      int    `json:"crashes"`
	Quarantined  bool   `json:"quarantined,omitempty"`
	ResultDigest string `json:"result_digest,omitempty"`
	Records      []byte `json:"records"`
}

func checkpointPath(dir, tenant string) string {
	return filepath.Join(dir, tenant+".ckpt")
}

// checkpointed reports whether tenant may have a checkpoint on disk: any
// answer but "no such file" counts, so restoreLocked reports a file that
// cannot be read.
func (s *Server) checkpointed(tenant string) bool {
	if s.cfg.CheckpointDir == "" {
		return false
	}
	_, err := os.Stat(checkpointPath(s.cfg.CheckpointDir, tenant))
	return !errors.Is(err, fs.ErrNotExist)
}

// decodeCheckpoint parses and validates a checkpoint document. The journal
// keeps the checkpoint's record bytes once every record has been validated.
func decodeCheckpoint(data []byte, wantConfigDigest, tenant string) (*checkpointFile, *trace.RecordLog, error) {
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, nil, fmt.Errorf("serve: corrupt checkpoint for %s: %w", tenant, err)
	}
	if ck.Version != checkpointVersion {
		return nil, nil, fmt.Errorf("serve: checkpoint for %s has version %d, want %d",
			tenant, ck.Version, checkpointVersion)
	}
	if ck.Tenant != tenant {
		return nil, nil, fmt.Errorf("serve: checkpoint names tenant %q, not %q", ck.Tenant, tenant)
	}
	if ck.ConfigDigest != wantConfigDigest {
		return nil, nil, fmt.Errorf(
			"serve: checkpoint for %s was written under config %s; this server runs %s",
			tenant, ck.ConfigDigest, wantConfigDigest)
	}
	if ck.NextSeq == 0 {
		return nil, nil, fmt.Errorf("serve: checkpoint for %s has zero next_seq", tenant)
	}
	journal, err := trace.ParseRecordLog(ck.Records)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: corrupt journal for %s: %w", tenant, err)
	}
	return &ck, journal, nil
}

// checkpointLocked durably persists t's full state via the atomic write
// path: a crash mid-checkpoint leaves the previous checkpoint intact.
func (t *tenant) checkpointLocked(s *Server) error {
	ck := checkpointFile{
		Version:      checkpointVersion,
		ConfigDigest: s.digest,
		Tenant:       t.name,
		NextSeq:      t.nextSeq,
		Crashes:      t.crashes,
		Quarantined:  t.quarantined,
		Records:      t.journal.Stream(t.name),
	}
	if t.sess != nil {
		snap := t.sess.Snapshot()
		ck.ResultDigest = ResultDigest(&snap)
	} else {
		// Crashed or never-rebuilt state: carry the still-unverified
		// digest forward so the eventual rebuild is still checked.
		ck.ResultDigest = t.wantDigest
	}
	if err := atomicio.WriteJSON(checkpointPath(s.cfg.CheckpointDir, t.name), &ck); err != nil {
		return err
	}
	s.met.checkpoints.Add(1)
	return nil
}
