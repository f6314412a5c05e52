// Package store is a crash-safe, embedded, pure-stdlib key-value store for
// small content-addressed records: a segmented append-only log with an
// in-memory index, in the bitcask tradition.
//
// Layout: a store is a directory of numbered segment files
// (00000001.seg, 00000002.seg, …). Every mutation appends one CRC-checked
// record (see record.go) to the newest ("active") segment, which rotates
// once it exceeds Options.MaxSegmentBytes. Open replays every segment in
// order to rebuild the key → latest-record index; a torn record at the
// tail of the last segment — the only place a single-writer crash can
// leave one — is truncated away, so a crash between append and sync costs
// at most the unsynced suffix, never the store.
//
// Overwritten and deleted records become dead bytes. Once they exceed
// Options.CompactFraction of the log (and Options.MinCompactBytes), a
// background compaction rewrites the live records into fresh segments and
// deletes the old files; readers and writers only wait while the rewrite
// itself runs.
//
// Concurrency: a Store is safe for concurrent use by one process (Get
// takes a read lock; Put/Delete a write lock). The on-disk format has a
// single-writer design — replicas may share a store directory read-mostly
// (one writer process, any number of Open-then-Get readers of a quiescent
// copy), but two writer processes on one directory are not supported.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// segmentSuffix names segment files: fmt.Sprintf("%08d"+segmentSuffix, id).
const segmentSuffix = ".seg"

// Options tunes a Store. The zero value selects the defaults.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB). Smaller segments bound the cost of a tail replay and
	// let compaction drop whole files sooner.
	MaxSegmentBytes int64
	// CompactFraction triggers background compaction when
	// deadBytes/totalBytes exceeds it (default 0.5). Values ≥ 1 disable
	// automatic compaction; Compact can still be called explicitly.
	CompactFraction float64
	// MinCompactBytes is the dead-byte floor below which compaction never
	// triggers (default 64 KiB), so small stores don't churn.
	MinCompactBytes int64
	// SyncWrites fsyncs the active segment after every Put/Delete. Off by
	// default: the store syncs on rotation, compaction and Close, and the
	// CRC-checked log makes an unsynced tail a clean truncation, not
	// corruption.
	SyncWrites bool
}

// withDefaults fills the zero fields.
func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.CompactFraction <= 0 {
		o.CompactFraction = 0.5
	}
	if o.MinCompactBytes <= 0 {
		o.MinCompactBytes = 64 << 10
	}
	return o
}

// Stats is a point-in-time snapshot of a store's counters and sizes.
type Stats struct {
	// Records is the number of live keys; Segments the number of log files.
	Records  int
	Segments int
	// LiveBytes is the encoded size of the live records; DeadBytes the
	// overwritten/deleted remainder that compaction can reclaim.
	LiveBytes int64
	DeadBytes int64
	// Gets/Hits/Puts/Deletes count operations since Open.
	Gets, Hits, Puts, Deletes uint64
	// Compactions counts completed compaction passes since Open;
	// TailTruncations counts torn tail records dropped by Open.
	Compactions     uint64
	TailTruncations uint64
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// recordLoc locates one encoded record inside a segment.
type recordLoc struct {
	seg  uint32
	off  int64
	size int64
}

// segment is one open log file.
type segment struct {
	id   uint32
	f    *os.File
	size int64
}

// Store is the embedded key-value store. See the package comment for the
// design; construct with Open.
type Store struct {
	dir  string
	opts Options

	mu       sync.RWMutex
	index    map[string]recordLoc
	segments map[uint32]*segment
	active   *segment
	nextID   uint32
	live     int64
	total    int64
	closed   bool

	compacting atomic.Bool
	wg         sync.WaitGroup

	gets, hits, puts, deletes atomic.Uint64
	compactions, tailTruncs   atomic.Uint64
}

// Open opens (creating if necessary) the store rooted at dir, replaying
// every segment to rebuild the index. A torn record at the tail of the
// newest segment is truncated away (Stats.TailTruncations counts these); a
// bad record anywhere else is real corruption and fails the open.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts.withDefaults(),
		index:    make(map[string]recordLoc),
		segments: make(map[uint32]*segment),
		nextID:   1,
	}
	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		if err := s.replaySegment(id, i == len(ids)-1); err != nil {
			s.closeFiles()
			return nil, err
		}
		s.nextID = id + 1
	}
	if len(ids) > 0 {
		s.active = s.segments[ids[len(ids)-1]]
	} else if err := s.rotateLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// listSegments returns the segment ids found in dir, ascending.
func listSegments(dir string) ([]uint32, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	var ids []uint32
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != segmentSuffix {
			continue
		}
		var id uint32
		if _, err := fmt.Sscanf(name, "%08d"+segmentSuffix, &id); err != nil || id == 0 {
			return nil, fmt.Errorf("store: unrecognized segment file %q in %s", name, dir)
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// segmentPath names segment id's file.
func (s *Store) segmentPath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("%08d%s", id, segmentSuffix))
}

// replaySegment opens one segment and replays its records into the index.
// When the segment is the store's last, a bad or truncated record marks a
// torn tail: everything from it on is truncated away. Elsewhere the same
// condition is unrecoverable corruption.
func (s *Store) replaySegment(id uint32, last bool) error {
	path := s.segmentPath(id)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: replay segment: %w", err)
	}
	var off int64
	for off < int64(len(data)) {
		kind, key, _, n, err := decodeRecord(data[off:])
		if err != nil {
			if !last {
				f.Close()
				return fmt.Errorf("store: segment %s corrupt at offset %d: %w", path, off, err)
			}
			// Torn tail of the newest segment: drop it and continue from
			// the last intact record.
			if err := f.Truncate(off); err != nil {
				f.Close()
				return fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
			}
			s.tailTruncs.Add(1)
			data = data[:off]
			break
		}
		s.applyReplay(kind, string(key), recordLoc{seg: id, off: off, size: n})
		off += n
	}
	seg := &segment{id: id, f: f, size: int64(len(data))}
	if _, err := f.Seek(seg.size, 0); err != nil {
		f.Close()
		return fmt.Errorf("store: seeking segment %s: %w", path, err)
	}
	s.segments[id] = seg
	s.total += seg.size
	return nil
}

// applyReplay folds one replayed record into the index and live-byte count.
func (s *Store) applyReplay(kind byte, key string, loc recordLoc) {
	if old, ok := s.index[key]; ok {
		s.live -= old.size
	}
	if kind == recordPut {
		s.index[key] = loc
		s.live += loc.size
	} else {
		delete(s.index, key)
	}
}

// Get returns the value stored under key (a fresh copy) and whether it
// exists. The record is re-verified against its checksum on every read.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	if err := faultinject.Hit("store.get"); err != nil {
		return nil, false, fmt.Errorf("store: injected read fault: %w", err)
	}
	s.gets.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	loc, ok := s.index[string(key)]
	if !ok {
		return nil, false, nil
	}
	val, err := s.readValueLocked(loc)
	if err != nil {
		return nil, false, err
	}
	s.hits.Add(1)
	return val, true, nil
}

// readValueLocked reads and checksum-verifies the record at loc, returning
// its value. Callers hold at least the read lock.
func (s *Store) readValueLocked(loc recordLoc) ([]byte, error) {
	seg, ok := s.segments[loc.seg]
	if !ok {
		return nil, fmt.Errorf("store: index points at missing segment %d", loc.seg)
	}
	buf := make([]byte, loc.size)
	if _, err := seg.f.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("store: reading segment %d@%d: %w", loc.seg, loc.off, err)
	}
	_, _, val, _, err := decodeRecord(buf)
	if err != nil {
		return nil, fmt.Errorf("store: segment %d@%d: %w", loc.seg, loc.off, err)
	}
	return val, nil
}

// Put stores value under key, appending one record to the active segment
// and updating the index. Overwriting a key turns its previous record into
// dead bytes, which background compaction eventually reclaims.
func (s *Store) Put(key, value []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d out of range [1,%d]", len(key), maxKeyLen)
	}
	if len(value) > maxValueLen {
		return fmt.Errorf("store: value length %d exceeds %d", len(value), maxValueLen)
	}
	if err := faultinject.Hit("store.put"); err != nil {
		return fmt.Errorf("store: injected write fault: %w", err)
	}
	s.puts.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	loc, err := s.appendLocked(recordPut, key, value)
	if err != nil {
		return err
	}
	s.applyReplay(recordPut, string(key), loc)
	s.maybeCompactLocked()
	return nil
}

// Delete removes key, appending a tombstone when the key exists. Deleting
// an absent key is a no-op.
func (s *Store) Delete(key []byte) error {
	s.deletes.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.index[string(key)]; !ok {
		return nil
	}
	if _, err := s.appendLocked(recordDelete, key, nil); err != nil {
		return err
	}
	s.applyReplay(recordDelete, string(key), recordLoc{})
	s.maybeCompactLocked()
	return nil
}

// appendLocked writes one record to the active segment (rotating first
// when it is full) and returns its location. Callers hold the write lock.
func (s *Store) appendLocked(kind byte, key, value []byte) (recordLoc, error) {
	size := recordSize(len(key), len(value))
	if s.active.size > 0 && s.active.size+size > s.opts.MaxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return recordLoc{}, err
		}
	}
	rec := appendRecord(make([]byte, 0, size), kind, key, value)
	if _, err := s.active.f.Write(rec); err != nil {
		return recordLoc{}, fmt.Errorf("store: appending to segment %d: %w", s.active.id, err)
	}
	if s.opts.SyncWrites {
		if err := s.active.f.Sync(); err != nil {
			return recordLoc{}, fmt.Errorf("store: syncing segment %d: %w", s.active.id, err)
		}
	}
	loc := recordLoc{seg: s.active.id, off: s.active.size, size: size}
	s.active.size += size
	s.total += size
	return loc, nil
}

// rotateLocked syncs the current active segment and opens a fresh one.
func (s *Store) rotateLocked() error {
	if s.active != nil {
		if err := s.active.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing segment %d: %w", s.active.id, err)
		}
	}
	id := s.nextID
	f, err := os.OpenFile(s.segmentPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment: %w", err)
	}
	s.nextID++
	s.active = &segment{id: id, f: f}
	s.segments[id] = s.active
	return nil
}

// maybeCompactLocked launches a background compaction when the dead-byte
// share exceeds the configured fraction. Callers hold the write lock.
func (s *Store) maybeCompactLocked() {
	dead := s.total - s.live
	if dead < s.opts.MinCompactBytes || s.opts.CompactFraction >= 1 {
		return
	}
	if float64(dead) < s.opts.CompactFraction*float64(s.total) {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return // one pass at a time
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.mu.Lock()
		defer s.mu.Unlock()
		// Clear the flag before the lock goes (defers run last-in first-out):
		// a Put that takes the lock after this pass must be free to start
		// the next one, or a burst landing in that gap leaves its dead
		// bytes behind with no pass pending.
		defer s.compacting.Store(false)
		if s.closed {
			return
		}
		_ = s.compactLocked() // best effort; the log stays valid on failure
	}()
}

// Compact rewrites the live records into fresh segments and deletes the
// old files, reclaiming all dead bytes. It blocks readers and writers for
// the duration of the rewrite.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

// compactLocked copies every live record, ordered by its current (segment,
// offset) position for sequential reads, into new segments numbered after
// all existing ones, syncs them, swaps the index over and removes the old
// files. A crash mid-compaction leaves both generations on disk: replay
// order (old before new) makes the copied records win, so the store
// reopens consistently. Callers hold the write lock.
func (s *Store) compactLocked() error {
	type liveRec struct {
		key string
		loc recordLoc
	}
	live := make([]liveRec, 0, len(s.index))
	for k, loc := range s.index {
		live = append(live, liveRec{key: k, loc: loc})
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].loc.seg != live[j].loc.seg {
			return live[i].loc.seg < live[j].loc.seg
		}
		return live[i].loc.off < live[j].loc.off
	})

	oldSegs := s.segments
	oldActive := s.active
	// Fresh generation: compaction output continues the segment numbering,
	// so replay order stays append order even across a crash.
	s.segments = make(map[uint32]*segment, 1)
	s.active = nil
	s.total, s.live = 0, 0
	newIndex := make(map[string]recordLoc, len(live))

	restore := func() {
		for _, seg := range s.segments {
			seg.f.Close()
			os.Remove(s.segmentPath(seg.id))
		}
		s.segments = oldSegs
		s.active = oldActive
		s.total, s.live = 0, 0
		for _, seg := range oldSegs {
			s.total += seg.size
		}
		for _, loc := range s.index {
			s.live += loc.size
		}
	}

	if err := s.rotateLocked(); err != nil {
		restore()
		return err
	}
	for _, lr := range live {
		oldSeg, ok := oldSegs[lr.loc.seg]
		if !ok {
			restore()
			return fmt.Errorf("store: compact: missing segment %d", lr.loc.seg)
		}
		buf := make([]byte, lr.loc.size)
		if _, err := oldSeg.f.ReadAt(buf, lr.loc.off); err != nil {
			restore()
			return fmt.Errorf("store: compact: reading segment %d@%d: %w", lr.loc.seg, lr.loc.off, err)
		}
		kind, key, value, _, err := decodeRecord(buf)
		if err != nil || kind != recordPut {
			restore()
			return fmt.Errorf("store: compact: segment %d@%d: %w", lr.loc.seg, lr.loc.off, err)
		}
		loc, err := s.appendLocked(recordPut, key, value)
		if err != nil {
			restore()
			return err
		}
		newIndex[lr.key] = loc
		s.live += loc.size
	}
	for _, seg := range s.segments {
		if err := seg.f.Sync(); err != nil {
			restore()
			return fmt.Errorf("store: compact: syncing segment %d: %w", seg.id, err)
		}
	}

	// The new generation is durable: point the index at it and drop the
	// old files. Removal failures are ignored — stray old segments only
	// waste space and replay harmlessly before the new generation.
	s.index = newIndex
	for _, seg := range oldSegs {
		seg.f.Close()
		_ = os.Remove(s.segmentPath(seg.id))
	}
	s.compactions.Add(1)
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats returns a snapshot of the store's counters and sizes.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Records:         len(s.index),
		Segments:        len(s.segments),
		LiveBytes:       s.live,
		DeadBytes:       s.total - s.live,
		Gets:            s.gets.Load(),
		Hits:            s.hits.Load(),
		Puts:            s.puts.Load(),
		Deletes:         s.deletes.Load(),
		Compactions:     s.compactions.Load(),
		TailTruncations: s.tailTruncs.Load(),
	}
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.active.f.Sync()
}

// Close waits for any background compaction, syncs the active segment and
// closes every file. Close is idempotent; all other methods fail with
// ErrClosed afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	s.wg.Wait() // let an in-flight compaction finish or bail

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.active != nil {
		err = s.active.f.Sync()
	}
	s.closeFiles()
	return err
}

// closeFiles closes every open segment handle.
func (s *Store) closeFiles() {
	for _, seg := range s.segments {
		seg.f.Close()
	}
}

// IsCorruption reports whether err marks a corrupt (non-tail) record — the
// condition under which a caller may decide to rebuild the store from
// scratch rather than fail.
func IsCorruption(err error) bool {
	return errors.Is(err, errBadRecord)
}
