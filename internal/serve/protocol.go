package serve

// Wire types of the pdede-serve HTTP API. Batches travel as PDT1 binary
// trace streams (internal/trace codec) in the request body; everything
// else is JSON.
//
// The API is sequence-numbered for exactly-once application: the client
// numbers a tenant's batches 1, 2, 3, ... and the server applies batch n
// only when it is the next one. A retried batch whose first attempt did
// apply is acknowledged from the tenant's cache without touching the
// simulator, so client retries (timeouts, restarts, 5xx) can never
// double-train a predictor.

// BatchAck acknowledges one applied (or deduplicated) batch.
type BatchAck struct {
	Tenant string `json:"tenant"`
	// Seq is the acknowledged batch sequence number.
	Seq uint64 `json:"seq"`
	// Records is the number of branch records this batch applied (0 for a
	// duplicate acknowledged from cache without re-application).
	Records int `json:"records"`
	// Duplicate marks a batch that had already been applied; the ack
	// carries the rolling state without re-applying anything.
	Duplicate bool `json:"duplicate,omitempty"`

	// TotalRecords/Instructions are the tenant's lifetime applied totals.
	TotalRecords uint64 `json:"total_records"`
	Instructions uint64 `json:"instructions"`
	// MPKI and IPC are the rolling metrics over the measured window.
	MPKI float64 `json:"mpki"`
	IPC  float64 `json:"ipc"`
	// Digest fingerprints the tenant's entire rolling result (every
	// counter and cycle float) after this batch; an offline replay of the
	// same records through core.Session produces the same digest iff the
	// served simulation is bit-identical.
	Digest string `json:"digest"`
}

// TenantStats is the GET stats document for one tenant.
type TenantStats struct {
	Tenant  string `json:"tenant"`
	NextSeq uint64 `json:"next_seq"`
	// Resident reports whether the simulator was live in memory when this
	// stats request arrived. False means the request found the tenant shed
	// (or just restarted) and rebuilt it from the journal to answer — the
	// metrics below are authoritative either way.
	Resident    bool `json:"resident"`
	Quarantined bool `json:"quarantined"`
	Crashes     int  `json:"crashes"`

	TotalRecords uint64  `json:"total_records"`
	Instructions uint64  `json:"instructions"`
	MPKI         float64 `json:"mpki"`
	IPC          float64 `json:"ipc"`
	Digest       string  `json:"digest"`
}

// ErrorBody is the JSON error document accompanying every non-2xx status.
type ErrorBody struct {
	Error string `json:"error"`
	// Code is a stable machine-readable cause: one of the Code* constants.
	Code string `json:"code"`
	// Retryable tells well-behaved clients whether retrying (after the
	// Retry-After hint, when present) can succeed.
	Retryable bool `json:"retryable"`
}

// Stable error codes.
const (
	// CodeBackpressure: the tenant already has a batch queued (this is the
	// batch after it), or the server's apply queue is full. 429 with a
	// Retry-After hint; retryable.
	CodeBackpressure = "backpressure"
	// CodeDraining: the server is shutting down gracefully; a restarted
	// instance will resume from checkpoints. 503; retryable.
	CodeDraining = "draining"
	// CodePending: this exact batch is the tenant's queued or applying
	// one (a resend while the first copy waits, e.g. after a 504). 409;
	// retryable — by the time the client retries, the first copy has
	// usually applied and the retry acks as a duplicate.
	CodePending = "pending"
	// CodeGap: the batch skips ahead of the tenant's next expected
	// sequence number; earlier batches are missing. 409; not retryable.
	CodeGap = "gap"
	// CodeQuarantined: the tenant crashed the simulator too many times and
	// is refusing further batches. 503; not retryable.
	CodeQuarantined = "quarantined"
	// CodeTruncated: the request body ended mid-record (a dying or
	// misbehaving client); nothing was applied. 400; retryable with a
	// rebuilt body.
	CodeTruncated = "truncated"
	// CodeBadRequest: malformed tenant name, sequence number, or body.
	// 400; not retryable.
	CodeBadRequest = "bad-request"
	// CodeTooLarge: the batch exceeds the configured record cap. 413; not
	// retryable as-is (split the batch).
	CodeTooLarge = "too-large"
	// CodeDeadline: the batch missed its per-request deadline while queued
	// or applying; it may still apply afterwards, so the client must
	// retry the same sequence number and expect a possible duplicate ack.
	// 504; retryable.
	CodeDeadline = "deadline"
	// CodeCheckpoint: the tenant's on-disk checkpoint was written by an
	// incompatible configuration (digest mismatch) or is corrupt. 409;
	// not retryable.
	CodeCheckpoint = "checkpoint-conflict"
	// CodeCrashed: applying this batch panicked the simulator; tenant
	// state was rolled back and the batch was not applied. 500; not
	// retryable (the same records would crash again).
	CodeCrashed = "crashed"
	// CodeUnknownTenant: a stats query for a tenant with no applied state
	// in memory or on disk. 404; not retryable.
	CodeUnknownTenant = "unknown-tenant"
	// CodeInternal: unexpected server-side failure. 500.
	CodeInternal = "internal"
)

// RetryAfterHeader is the standard backpressure hint header on 429/503.
const RetryAfterHeader = "Retry-After"
