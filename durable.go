package lia

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lia/internal/stats"
	"lia/wal"
)

// This file is the durability layer: exact binary checkpoints of the moment
// state (Engine.Checkpoint / RestoreFrom, and the sharded equivalents), and
// the DurableEngine wrapper that pairs periodic checkpoints with a
// write-ahead log of the ingested snapshots so a crashed process recovers
// moments bitwise-identical to an uninterrupted run.
//
// Checkpoint format (little-endian):
//
//	8-byte magic "LIACKPT1" | u16 version | u8 kind | u8 reserved
//	kind-specific body | u32 crc32(IEEE, everything before it)
//
//	Engine body:  u64 epoch | i64 builtAt (unix nanos, 0 = none) |
//	              u32 recLen | accumulator record (internal/stats codec)
//	Sharded body: u64 epoch | u32 ncomps | per component: u32 len +
//	              a complete nested Engine checkpoint
const (
	ckptMagic   = "LIACKPT1"
	ckptVersion = 1

	ckptKindEngine  byte = 1
	ckptKindSharded byte = 2
)

// CheckpointRestorer is the persistence surface Engine and ShardedEngine
// share: serialize the complete moment state, or replace it with a
// previously serialized one. DurableEngine drives it; it is exported so
// callers can build their own persistence on top of the same exact format.
type CheckpointRestorer interface {
	// Checkpoint writes the engine's moment state (accumulator, ingestion
	// epoch, last-rebuild wall time) to w. The snapshot is consistent: it is
	// taken under the ingest lock.
	Checkpoint(w io.Writer) error
	// RestoreFrom replaces the engine's moment state with a checkpoint
	// previously written by the same engine shape (matching dimension,
	// window/decay configuration, and — for sharded engines — partition).
	// It validates everything before touching any state: on error the
	// engine is exactly as before. Restoring resets the cached Phase-1
	// state; the next query rebuilds from the restored moments.
	RestoreFrom(r io.Reader) error
}

var (
	_ CheckpointRestorer = (*Engine)(nil)
	_ CheckpointRestorer = (*ShardedEngine)(nil)
)

// errCorruptCheckpoint classifies checkpoint bytes that failed structural or
// CRC validation (as opposed to a configuration mismatch); both make
// recovery skip to an older checkpoint.
var errCorruptCheckpoint = errors.New("lia: corrupt checkpoint")

// CorruptStateError reports that a durability directory holds persisted
// state — checkpoints and/or WAL segments — none of which could be
// salvaged into a consistent engine: every checkpoint failed validation and
// the write-ahead log does not reach back far enough to rebuild from
// scratch. The engine is NOT started cold in this case (silently discarding
// state a production operator relied on would be worse); clear the
// directory, or point the engine at a fresh one, to boot cold explicitly.
type CorruptStateError struct {
	// Dir is the durability directory.
	Dir string
	// Checkpoints lists the checkpoint files tried, newest first.
	Checkpoints []string
	// Err joins the per-file restore errors and any WAL replay error.
	Err error
}

func (e *CorruptStateError) Error() string {
	return fmt.Sprintf("lia: no salvageable state in %s (tried %d checkpoints): %v",
		e.Dir, len(e.Checkpoints), e.Err)
}

func (e *CorruptStateError) Unwrap() error { return e.Err }

// engineCkpt is one parsed (not yet installed) engine checkpoint.
type engineCkpt struct {
	epoch   uint64
	builtAt int64
	acc     stats.MomentAccumulator
}

// appendEngineBody marshals the engine's moment state under its ingest lock.
func (e *Engine) appendEngineBody(buf []byte) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	buf = binary.LittleEndian.AppendUint64(buf, e.epoch.Load())
	builtAt := e.restoredAt.Load()
	if st := e.state.Load(); st != nil && !st.builtAt.IsZero() {
		builtAt = st.builtAt.UnixNano()
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(builtAt))
	lenAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // recLen backpatch
	buf, err := stats.AppendAccumulator(buf, e.acc)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	return buf, nil
}

func frameCheckpoint(kind byte, body func(buf []byte) ([]byte, error)) ([]byte, error) {
	buf := append([]byte(nil), ckptMagic...)
	buf = append(buf, byte(ckptVersion), 0, kind, 0)
	buf, err := body(buf)
	if err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// openCheckpoint validates the outer frame (magic, version, CRC) and returns
// the kind byte and body bytes.
func openCheckpoint(data []byte) (kind byte, body []byte, err error) {
	fail := func(format string, args ...any) (byte, []byte, error) {
		return 0, nil, fmt.Errorf("%w: %s", errCorruptCheckpoint, fmt.Sprintf(format, args...))
	}
	if len(data) < len(ckptMagic)+4+4 {
		return fail("short checkpoint: %d bytes", len(data))
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return fail("bad magic")
	}
	if v := binary.LittleEndian.Uint16(data[len(ckptMagic):]); v != ckptVersion {
		return fail("unsupported version %d", v)
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != want {
		return fail("crc mismatch: computed %#x, stored %#x", got, want)
	}
	return data[len(ckptMagic)+2], data[len(ckptMagic)+4 : len(data)-4], nil
}

// parseEngineBody parses one engine body (epoch, builtAt, accumulator
// record), returning the bytes consumed.
func parseEngineBody(body []byte) (*engineCkpt, int, error) {
	if len(body) < 20 {
		return nil, 0, fmt.Errorf("%w: short engine body", errCorruptCheckpoint)
	}
	ck := &engineCkpt{
		epoch:   binary.LittleEndian.Uint64(body),
		builtAt: int64(binary.LittleEndian.Uint64(body[8:])),
	}
	recLen := int(binary.LittleEndian.Uint32(body[16:]))
	if recLen < 0 || len(body) < 20+recLen {
		return nil, 0, fmt.Errorf("%w: truncated accumulator record", errCorruptCheckpoint)
	}
	acc, n, err := stats.DecodeAccumulator(body[20 : 20+recLen])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", errCorruptCheckpoint, err)
	}
	if n != recLen {
		return nil, 0, fmt.Errorf("%w: accumulator record length %d, consumed %d", errCorruptCheckpoint, recLen, n)
	}
	ck.acc = acc
	return ck, 20 + recLen, nil
}

// validateAgainst checks the parsed checkpoint matches the engine's shape:
// same dimension and the same moment configuration (cumulative / window n /
// decay λ). A mismatch means the checkpoint belongs to a differently
// configured engine and must not be installed.
func (ck *engineCkpt) validateAgainst(e *Engine) error {
	if got, want := ck.acc.Dim(), e.rm.NumPaths(); got != want {
		return fmt.Errorf("lia: checkpoint dimension %d, engine has %d paths", got, want)
	}
	switch acc := ck.acc.(type) {
	case *stats.CovAccumulator:
		if e.window != 0 || e.decay != 0 {
			return fmt.Errorf("lia: cumulative checkpoint for engine with window=%d decay=%g", e.window, e.decay)
		}
	case *stats.WindowedCovAccumulator:
		if acc.Window() != e.window {
			return fmt.Errorf("lia: checkpoint window %d, engine configured %d", acc.Window(), e.window)
		}
	case *stats.DecayCovAccumulator:
		if acc.Lambda() != e.decay {
			return fmt.Errorf("lia: checkpoint decay %g, engine configured %g", acc.Lambda(), e.decay)
		}
	default:
		return fmt.Errorf("lia: unknown accumulator type %T", ck.acc)
	}
	return nil
}

// install replaces the engine's moment state with the parsed checkpoint.
// Caller has validated; after install the next query rebuilds from the
// restored moments.
func (e *Engine) install(ck *engineCkpt) {
	e.mu.Lock()
	e.acc = ck.acc
	e.epoch.Store(ck.epoch)
	e.mu.Unlock()
	e.state.Store(nil)
	e.restoredAt.Store(ck.builtAt)
	e.degraded.Store(false)
}

// Checkpoint writes the engine's complete moment state to w in the exact
// binary checkpoint format. See CheckpointRestorer.
func (e *Engine) Checkpoint(w io.Writer) error {
	buf, err := frameCheckpoint(ckptKindEngine, e.appendEngineBody)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// RestoreFrom replaces the engine's moment state with a checkpoint written
// by Engine.Checkpoint on an identically configured engine. See
// CheckpointRestorer.
func (e *Engine) RestoreFrom(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("lia: read checkpoint: %w", err)
	}
	kind, body, err := openCheckpoint(data)
	if err != nil {
		return err
	}
	if kind != ckptKindEngine {
		return fmt.Errorf("%w: checkpoint kind %d, want engine", errCorruptCheckpoint, kind)
	}
	ck, n, err := parseEngineBody(body)
	if err != nil {
		return err
	}
	if n != len(body) {
		return fmt.Errorf("%w: %d trailing bytes", errCorruptCheckpoint, len(body)-n)
	}
	if err := ck.validateAgainst(e); err != nil {
		return err
	}
	e.install(ck)
	return nil
}

// Checkpoint writes the sharded engine's complete moment state — one nested
// engine checkpoint per component — to w. See CheckpointRestorer.
func (e *ShardedEngine) Checkpoint(w io.Writer) error {
	buf, err := frameCheckpoint(ckptKindSharded, func(buf []byte) ([]byte, error) {
		// Hold the sharded ingest lock across all components so every
		// nested checkpoint reflects the same global epoch.
		e.mu.Lock()
		defer e.mu.Unlock()
		buf = binary.LittleEndian.AppendUint64(buf, e.epoch.Load())
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.comps)))
		for _, sc := range e.comps {
			nested, err := frameCheckpoint(ckptKindEngine, sc.eng.appendEngineBody)
			if err != nil {
				return nil, err
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nested)))
			buf = append(buf, nested...)
		}
		return buf, nil
	})
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// RestoreFrom replaces every component's moment state with a checkpoint
// written by ShardedEngine.Checkpoint over the same topology and options.
// All components parse and validate before any installs, so a bad
// checkpoint leaves the engine untouched. See CheckpointRestorer.
func (e *ShardedEngine) RestoreFrom(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("lia: read checkpoint: %w", err)
	}
	kind, body, err := openCheckpoint(data)
	if err != nil {
		return err
	}
	if kind != ckptKindSharded {
		return fmt.Errorf("%w: checkpoint kind %d, want sharded", errCorruptCheckpoint, kind)
	}
	if len(body) < 12 {
		return fmt.Errorf("%w: short sharded body", errCorruptCheckpoint)
	}
	epoch := binary.LittleEndian.Uint64(body)
	ncomps := int(binary.LittleEndian.Uint32(body[8:]))
	if ncomps != len(e.comps) {
		return fmt.Errorf("lia: checkpoint has %d components, engine has %d", ncomps, len(e.comps))
	}
	body = body[12:]
	cks := make([]*engineCkpt, ncomps)
	for c := 0; c < ncomps; c++ {
		if len(body) < 4 {
			return fmt.Errorf("%w: truncated component %d", errCorruptCheckpoint, c)
		}
		nlen := int(binary.LittleEndian.Uint32(body))
		if nlen < 0 || len(body) < 4+nlen {
			return fmt.Errorf("%w: truncated component %d", errCorruptCheckpoint, c)
		}
		nested := body[4 : 4+nlen]
		body = body[4+nlen:]
		nkind, nbody, err := openCheckpoint(nested)
		if err != nil {
			return fmt.Errorf("component %d: %w", c, err)
		}
		if nkind != ckptKindEngine {
			return fmt.Errorf("%w: component %d kind %d", errCorruptCheckpoint, c, nkind)
		}
		ck, n, err := parseEngineBody(nbody)
		if err != nil {
			return fmt.Errorf("component %d: %w", c, err)
		}
		if n != len(nbody) {
			return fmt.Errorf("%w: component %d has %d trailing bytes", errCorruptCheckpoint, c, len(nbody)-n)
		}
		if err := ck.validateAgainst(e.comps[c].eng); err != nil {
			return fmt.Errorf("component %d: %w", c, err)
		}
		cks[c] = ck
	}
	if len(body) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errCorruptCheckpoint, len(body))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for c, ck := range cks {
		e.comps[c].eng.install(ck)
	}
	e.epoch.Store(epoch)
	return nil
}

// DurabilityOptions configures the WithDurability layer. The zero value is
// usable: checkpoint every 256 snapshots, keep 2 checkpoints, fsync the WAL
// per batch.
type DurabilityOptions struct {
	// CheckpointEvery takes a checkpoint after this many ingested snapshots
	// (default 256; negative disables count-based checkpoints).
	CheckpointEvery int
	// CheckpointInterval additionally takes a checkpoint when at least this
	// much time has passed since the last one and new snapshots arrived
	// (0 = disabled). The check runs on ingest, so an idle engine does not
	// checkpoint repeatedly.
	CheckpointInterval time.Duration
	// Keep is how many checkpoints to retain (default 2 — the previous one
	// is the fallback when the newest is corrupt; minimum 1).
	Keep int
	// Fsync is the WAL fsync policy (default wal.SyncBatch).
	Fsync wal.SyncPolicy
	// FsyncInterval is the wal.SyncInterval cadence (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation size (default 64 MiB).
	SegmentBytes int64
}

func (o DurabilityOptions) withDefaults() DurabilityOptions {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 256
	}
	if o.Keep < 1 {
		o.Keep = 2
	}
	return o
}

// DurabilityStats is the observability surface of a DurableEngine, exported
// through liaserve's /v1/status and /metrics.
type DurabilityStats struct {
	// Dir is the durability directory.
	Dir string
	// SyncPolicy is the WAL fsync policy ("batch", "interval", "off").
	SyncPolicy string
	// Checkpoints counts checkpoints taken this process lifetime.
	Checkpoints uint64
	// CheckpointEpoch is the ingestion epoch the newest durable checkpoint
	// covers (0 when none).
	CheckpointEpoch uint64
	// LastCheckpoint is the wall time the most recent checkpoint write took.
	LastCheckpoint time.Duration
	// LastCheckpointAt is when the most recent checkpoint completed.
	LastCheckpointAt time.Time
	// WALBytes is the current total size of the WAL segment files.
	WALBytes int64
	// WALRecords counts WAL records appended this process lifetime.
	WALRecords uint64
	// WALSegments is the number of WAL segment files.
	WALSegments int
	// RecoveredEpoch is the ingestion epoch restored from a checkpoint at
	// boot (0 on a cold boot).
	RecoveredEpoch uint64
	// ReplayedSnapshots is how many snapshots boot recovery replayed from
	// the WAL tail on top of the restored checkpoint.
	ReplayedSnapshots int
	// CorruptCheckpoints counts checkpoint files recovery had to skip
	// (CRC mismatch, truncation, configuration mismatch).
	CorruptCheckpoints int
}

// DurableEngine wraps an Engine or ShardedEngine with crash durability:
// every ingested batch is appended to a write-ahead log (wal package) before
// it folds into the moments, and the full moment state checkpoints to disk
// periodically. Construction (via New with WithDurability) recovers the
// previous process's state first — newest valid checkpoint, then WAL tail
// replay — falling back to the previous checkpoint when the newest fails
// its CRC, and surfacing *CorruptStateError when nothing is salvageable.
// Because both the checkpoint codec and WAL replay round-trip float64 bits
// exactly and replay preserves fold order, a recovered engine's moments —
// and therefore its Variances/Infer output — are bitwise-identical to an
// uninterrupted run over the same snapshot stream.
//
// Queries delegate straight to the inner engine and stay lock-free;
// ingestion serialises on one mutex around the WAL append + inner fold
// (WAL-then-ingest: a snapshot is never in the moments without being in the
// log, so an acknowledged ingest can never be lost past the fsync policy).
//
// Close takes a final checkpoint (making graceful restarts replay-free) and
// closes the log. A DurableEngine abandoned without Close loses nothing
// either — that is the point — it just replays the WAL tail on next boot.
type DurableEngine struct {
	inner Inferencer
	ckpt  CheckpointRestorer
	dir   string
	opts  DurabilityOptions

	mu         sync.Mutex // serialises ingest, checkpoint, close
	log        *wal.Log
	closed     bool
	sinceCkpt  int // snapshots ingested since the last checkpoint
	lastCkptAt time.Time
	buf        []byte // WAL record scratch, reused per batch

	// Stats fields, guarded by mu.
	checkpoints  uint64
	ckptEpoch    uint64
	lastCkptDur  time.Duration
	recovered    uint64
	replayed     int
	corruptCkpts int
}

var _ Inferencer = (*DurableEngine)(nil)

// checkpointName formats/parses the checkpoint file name for an epoch; the
// zero-padded epoch makes lexical order equal epoch order.
func checkpointName(epoch uint64) string { return fmt.Sprintf("checkpoint-%020d.ckpt", epoch) }

func checkpointEpoch(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	var epoch uint64
	if _, err := fmt.Sscanf(name, "checkpoint-%020d.ckpt", &epoch); err != nil {
		return 0, false
	}
	return epoch, true
}

// listCheckpoints returns the checkpoint file names in dir, newest first.
func listCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := checkpointEpoch(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// newDurableEngine wraps inner with durability rooted at dir, running
// recovery first. See DurableEngine.
func newDurableEngine(inner Inferencer, dir string, opts DurabilityOptions) (*DurableEngine, error) {
	ckpt, ok := inner.(CheckpointRestorer)
	if !ok {
		return nil, fmt.Errorf("lia: engine type %T does not support checkpointing", inner)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lia: durability dir: %w", err)
	}
	d := &DurableEngine{inner: inner, ckpt: ckpt, dir: dir, opts: opts.withDefaults()}

	// Phase 1: newest checkpoint that validates wins; skipped ones count as
	// corrupt and are repaired (replaced + deleted) after recovery.
	names, err := listCheckpoints(dir)
	if err != nil {
		return nil, fmt.Errorf("lia: durability dir: %w", err)
	}
	var restoreErrs []error
	var failed []string
	restored := false
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err == nil {
			err = ckpt.RestoreFrom(f)
			f.Close()
		}
		if err == nil {
			restored = true
			d.recovered = uint64(inner.Snapshots())
			break
		}
		restoreErrs = append(restoreErrs, fmt.Errorf("%s: %w", name, err))
		failed = append(failed, name)
		d.corruptCkpts++
	}

	// Phase 2: open the WAL (truncating any torn tail) and replay every
	// snapshot past the restored epoch, in original fold order.
	log, err := wal.Open(dir, wal.Options{
		SegmentBytes: d.opts.SegmentBytes,
		Policy:       d.opts.Fsync,
		SyncEvery:    d.opts.FsyncInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("lia: durability wal: %w", err)
	}
	d.log = log
	restoredEpoch := d.recovered
	expect := restoredEpoch + 1
	replayErr := log.Replay(0, func(seq uint64, payload []byte) error {
		vecs, err := decodeWALBatch(payload, inner.RoutingMatrix().NumPaths())
		if err != nil {
			return err
		}
		batchEnd := seq + uint64(len(vecs)) - 1
		if batchEnd < expect {
			return nil // batch fully covered by the restored checkpoint
		}
		if seq > expect {
			return fmt.Errorf("lia: wal gap: record at epoch %d, expected %d", seq, expect)
		}
		vecs = vecs[expect-seq:] // skip the checkpoint-covered prefix
		if err := inner.IngestBatch(vecs); err != nil {
			return err
		}
		d.replayed += len(vecs)
		expect = batchEnd + 1
		return nil
	})
	if replayErr != nil || (!restored && len(names) > 0) {
		errs := append(restoreErrs, replayErr)
		if !restored && len(names) > 0 && replayErr == nil && d.replayed == 0 && len(failed) > 0 {
			// All checkpoints bad and the WAL alone could not rebuild:
			// surface rather than silently booting cold over dead state.
			errs = append(errs, errors.New("wal does not reach back to epoch 1"))
		}
		if replayErr != nil || d.replayed == 0 || uint64(inner.Snapshots()) == 0 {
			log.Close()
			return nil, &CorruptStateError{Dir: dir, Checkpoints: names, Err: errors.Join(errs...)}
		}
	}
	d.sinceCkpt = inner.Snapshots() - int(restoredEpoch)
	d.ckptEpoch = restoredEpoch

	// Phase 3: if recovery skipped corrupt checkpoints, immediately write a
	// fresh one covering the recovered state, then clear the bad files — so
	// the next crash does not have to limp over them again.
	if len(failed) > 0 && inner.Snapshots() > 0 {
		d.mu.Lock()
		err := d.checkpointLocked()
		d.mu.Unlock()
		if err != nil {
			log.Close()
			return nil, err
		}
		for _, name := range failed {
			if _, ok := checkpointEpoch(name); ok && name != checkpointName(d.ckptEpoch) {
				_ = os.Remove(filepath.Join(dir, name))
			}
		}
	}
	return d, nil
}

// appendWALBatch frames a batch of snapshot vectors as one WAL payload:
// u32 count | u32 dim | count·dim·f64 (float64 bits, little-endian).
func appendWALBatch(buf []byte, ys [][]float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ys)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ys[0])))
	for _, y := range ys {
		for _, v := range y {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

func decodeWALBatch(payload []byte, wantDim int) ([][]float64, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("lia: wal batch too short: %d bytes", len(payload))
	}
	count := int(binary.LittleEndian.Uint32(payload))
	dim := int(binary.LittleEndian.Uint32(payload[4:]))
	if count <= 0 || dim != wantDim {
		return nil, fmt.Errorf("lia: wal batch count=%d dim=%d (engine has %d paths)", count, dim, wantDim)
	}
	if len(payload) != 8+8*count*dim {
		return nil, fmt.Errorf("lia: wal batch length %d, want %d", len(payload), 8+8*count*dim)
	}
	backing := make([]float64, count*dim)
	for i := range backing {
		backing[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8+8*i:]))
	}
	vecs := make([][]float64, count)
	for i := range vecs {
		vecs[i] = backing[i*dim : (i+1)*dim]
	}
	return vecs, nil
}

// Ingest folds one learning snapshot, appending it to the WAL first.
func (d *DurableEngine) Ingest(y []float64) error {
	return d.IngestBatch([][]float64{y})
}

// IngestBatch folds a batch of snapshots, appending them to the WAL as one
// record first (WAL-then-ingest). The batch is validated before it is
// logged, so a dimension error leaves both the log and the moments
// untouched.
func (d *DurableEngine) IngestBatch(ys [][]float64) error {
	if len(ys) == 0 {
		return nil
	}
	rm := d.inner.RoutingMatrix()
	for i, y := range ys {
		if err := checkDim(rm, y); err != nil {
			return fmt.Errorf("lia: batch snapshot %d of %d (0 ingested): %w", i, len(ys), err)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("lia: durable engine is closed")
	}
	seq := uint64(d.inner.Snapshots()) + 1
	d.buf = appendWALBatch(d.buf[:0], ys)
	if err := d.log.Append(seq, d.buf); err != nil {
		return fmt.Errorf("lia: wal append: %w", err)
	}
	if err := d.inner.IngestBatch(ys); err != nil {
		return err
	}
	d.sinceCkpt += len(ys)
	return d.maybeCheckpointLocked()
}

// Consume drains a source with the same batching semantics as
// Engine.Consume; each internal batch becomes one WAL record.
func (d *DurableEngine) Consume(ctx context.Context, src SnapshotSource) (int, error) {
	return consumeSource(ctx, src, d.inner.RoutingMatrix(), d.IngestBatch)
}

func (d *DurableEngine) maybeCheckpointLocked() error {
	if d.sinceCkpt <= 0 {
		return nil
	}
	due := d.opts.CheckpointEvery > 0 && d.sinceCkpt >= d.opts.CheckpointEvery
	if !due && d.opts.CheckpointInterval > 0 && time.Since(d.lastCkptAt) >= d.opts.CheckpointInterval {
		due = true
	}
	if !due {
		return nil
	}
	return d.checkpointLocked()
}

// checkpointLocked atomically persists the inner engine's moment state:
// write to a temp file, fsync, rename into place, then prune old
// checkpoints and truncate the WAL segments a retained checkpoint covers.
// Caller holds d.mu, so the inner state cannot advance mid-write.
func (d *DurableEngine) checkpointLocked() error {
	start := time.Now()
	epoch := uint64(d.inner.Snapshots())
	tmp := filepath.Join(d.dir, "checkpoint.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("lia: checkpoint: %w", err)
	}
	err = d.ckpt.Checkpoint(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("lia: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, checkpointName(epoch))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("lia: checkpoint: %w", err)
	}
	syncDir(d.dir)
	d.checkpoints++
	d.ckptEpoch = epoch
	d.sinceCkpt = 0
	d.lastCkptAt = time.Now()
	d.lastCkptDur = time.Since(start)

	// Prune: keep the newest Keep checkpoints; WAL records below the oldest
	// retained epoch are covered and their sealed segments can go.
	names, err := listCheckpoints(d.dir)
	if err != nil {
		return nil // pruning is best-effort; the checkpoint itself landed
	}
	for i, name := range names {
		if i >= d.opts.Keep {
			_ = os.Remove(filepath.Join(d.dir, name))
		}
	}
	oldest := epoch
	for i := 0; i < len(names) && i < d.opts.Keep; i++ {
		if e, ok := checkpointEpoch(names[i]); ok {
			oldest = e
		}
	}
	_ = d.log.TruncateBefore(oldest + 1)
	return nil
}

// CheckpointNow forces a checkpoint of the current moment state regardless
// of cadence (a no-op on a completely empty engine).
func (d *DurableEngine) CheckpointNow() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("lia: durable engine is closed")
	}
	if d.inner.Snapshots() == 0 {
		return nil
	}
	return d.checkpointLocked()
}

// Close takes a final checkpoint of any state the last one does not cover
// and closes the WAL. The engine must not be used after Close; a crashed
// process that never got to Close loses nothing — recovery replays the WAL.
func (d *DurableEngine) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.sinceCkpt > 0 {
		err = d.checkpointLocked()
	}
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// DurabilityStats reports the durability counters: checkpoint cadence and
// cost, WAL footprint, and what boot recovery did.
func (d *DurableEngine) DurabilityStats() DurabilityStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DurabilityStats{
		Dir:                d.dir,
		SyncPolicy:         d.opts.Fsync.String(),
		Checkpoints:        d.checkpoints,
		CheckpointEpoch:    d.ckptEpoch,
		LastCheckpoint:     d.lastCkptDur,
		LastCheckpointAt:   d.lastCkptAt,
		WALBytes:           d.log.Bytes(),
		WALRecords:         d.log.Appended(),
		WALSegments:        d.log.Segments(),
		RecoveredEpoch:     d.recovered,
		ReplayedSnapshots:  d.replayed,
		CorruptCheckpoints: d.corruptCkpts,
	}
}

// Inner returns the wrapped engine (an *Engine or *ShardedEngine).
func (d *DurableEngine) Inner() Inferencer { return d.inner }

// The query surface delegates to the inner engine unchanged; see Engine and
// ShardedEngine for semantics.

func (d *DurableEngine) RoutingMatrix() *RoutingMatrix { return d.inner.RoutingMatrix() }
func (d *DurableEngine) Snapshots() int                { return d.inner.Snapshots() }
func (d *DurableEngine) Threshold() float64            { return d.inner.Threshold() }
func (d *DurableEngine) Stats() Stats                  { return d.inner.Stats() }

func (d *DurableEngine) Infer(ctx context.Context, y []float64) (*Result, error) {
	return d.inner.Infer(ctx, y)
}

func (d *DurableEngine) InferCongested(ctx context.Context, y []float64) ([]bool, *Result, error) {
	return d.inner.InferCongested(ctx, y)
}

func (d *DurableEngine) Variances(ctx context.Context) ([]float64, error) {
	return d.inner.Variances(ctx)
}

func (d *DurableEngine) Steady(ctx context.Context) (*SteadyState, error) {
	return d.inner.Steady(ctx)
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Errors are ignored — every filesystem this runs on flushes the
// rename with the next segment fsync anyway, and there is no recovery
// action a caller could take.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}
