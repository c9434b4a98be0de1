package caltrust

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"contention/internal/core"
)

// SchemaVersion is the on-disk calibration envelope schema this build
// reads and writes. Schema 0 denotes a legacy raw-JSON calibration
// (the `calibrate -json` output), accepted on read for compatibility.
const SchemaVersion = 1

// Meta is the creation metadata stamped into a persisted calibration.
type Meta struct {
	// Platform names the calibrated platform (defaults to the
	// calibration's own Platform field).
	Platform string
	// CreatedAt is an RFC3339 timestamp supplied by the caller (kept
	// opaque here so simulated time works too).
	CreatedAt string
	// Note is free-form provenance ("recalibrated after drift @ w=12").
	Note string
}

// Envelope is the on-disk form: schema version, provenance, a checksum
// of the calibration payload, and the payload itself.
type Envelope struct {
	Schema      int             `json:"schema"`
	Platform    string          `json:"platform,omitempty"`
	CreatedAt   string          `json:"created_at,omitempty"`
	Note        string          `json:"note,omitempty"`
	Checksum    string          `json:"checksum"`
	Calibration json.RawMessage `json:"calibration"`
}

// ErrCorrupt is wrapped by load errors caused by a damaged file
// (truncation, bit rot, checksum mismatch) as opposed to version skew.
var ErrCorrupt = errors.New("caltrust: calibration file corrupt")

// ErrSchema is wrapped by load errors caused by an incompatible schema
// version.
var ErrSchema = errors.New("caltrust: incompatible calibration schema")

// checksum hashes the payload in canonical (compacted) JSON form, so
// re-indentation by the envelope encoder — or a pretty-printing editor
// — does not read as corruption while any value change does.
func checksum(payload []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return "", fmt.Errorf("caltrust: canonicalizing payload: %w", err)
	}
	sum := sha256.Sum256(compact.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// Encode renders the calibration as a schema-versioned, checksummed
// envelope. It refuses to encode a calibration that fails validation.
func Encode(cal core.Calibration, meta Meta) ([]byte, error) {
	if err := cal.Validate(); err != nil {
		return nil, fmt.Errorf("caltrust: refusing to persist invalid calibration: %w", err)
	}
	payload, err := json.Marshal(cal)
	if err != nil {
		return nil, fmt.Errorf("caltrust: encoding calibration: %w", err)
	}
	if meta.Platform == "" {
		meta.Platform = cal.Platform
	}
	sum, err := checksum(payload)
	if err != nil {
		return nil, err
	}
	env := Envelope{
		Schema:      SchemaVersion,
		Platform:    meta.Platform,
		CreatedAt:   meta.CreatedAt,
		Note:        meta.Note,
		Checksum:    sum,
		Calibration: payload,
	}
	out, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("caltrust: encoding envelope: %w", err)
	}
	return append(out, '\n'), nil
}

// Decode parses data written by Encode, verifying schema version and
// checksum before validating the calibration itself. Legacy raw
// calibration JSON (no envelope) is accepted and reported with a
// zero-schema envelope.
func Decode(data []byte) (core.Calibration, Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return core.Calibration{}, Envelope{}, fmt.Errorf("%w: not valid JSON: %v", ErrCorrupt, err)
	}
	if env.Calibration == nil && env.Checksum == "" {
		// Not an envelope. A legacy raw calibration decodes directly —
		// but only strictly: unknown fields mean "not a calibration".
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var cal core.Calibration
		if err := dec.Decode(&cal); err != nil {
			return core.Calibration{}, Envelope{}, fmt.Errorf("%w: neither an envelope nor a raw calibration: %v", ErrCorrupt, err)
		}
		if err := cal.Validate(); err != nil {
			return core.Calibration{}, Envelope{}, fmt.Errorf("caltrust: legacy calibration invalid: %w", err)
		}
		return cal, Envelope{Schema: 0, Platform: cal.Platform}, nil
	}
	if env.Schema != SchemaVersion {
		return core.Calibration{}, Envelope{}, fmt.Errorf("%w: file has schema %d, this build reads %d",
			ErrSchema, env.Schema, SchemaVersion)
	}
	if env.Checksum == "" || env.Calibration == nil {
		return core.Calibration{}, Envelope{}, fmt.Errorf("%w: envelope missing checksum or payload", ErrCorrupt)
	}
	got, err := checksum(env.Calibration)
	if err != nil {
		return core.Calibration{}, Envelope{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if got != env.Checksum {
		return core.Calibration{}, Envelope{}, fmt.Errorf("%w: checksum mismatch (stored %.12s…, computed %.12s…)",
			ErrCorrupt, env.Checksum, got)
	}
	var cal core.Calibration
	if err := json.Unmarshal(env.Calibration, &cal); err != nil {
		return core.Calibration{}, Envelope{}, fmt.Errorf("%w: payload does not decode: %v", ErrCorrupt, err)
	}
	if err := cal.Validate(); err != nil {
		return core.Calibration{}, Envelope{}, fmt.Errorf("caltrust: loaded calibration invalid: %w", err)
	}
	return cal, env, nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsyncs, and renames — a crash mid-write leaves either the
// old file or the new one, never a torn hybrid.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".cal-*.tmp")
	if err != nil {
		return fmt.Errorf("caltrust: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("caltrust: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("caltrust: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("caltrust: closing %s: %w", tmpName, err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return fmt.Errorf("caltrust: chmod %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("caltrust: renaming into place: %w", err)
	}
	return nil
}

// WriteFile persists the calibration to path atomically as a
// schema-versioned, checksummed envelope.
func WriteFile(path string, cal core.Calibration, meta Meta) error {
	data, err := Encode(cal, meta)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// ReadFile loads and verifies a calibration written by WriteFile (or a
// legacy raw `calibrate -json` file).
func ReadFile(path string) (core.Calibration, Envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Calibration{}, Envelope{}, fmt.Errorf("caltrust: reading %s: %w", path, err)
	}
	cal, env, err := Decode(data)
	if err != nil {
		return core.Calibration{}, Envelope{}, fmt.Errorf("%s: %w", path, err)
	}
	return cal, env, nil
}

// Store is a versioned calibration archive: each Save writes an
// immutable cal-vNNNN.json and atomically repoints CURRENT at it, so a
// recalibration can be rolled out (and rolled back) without a window
// in which no valid calibration exists on disk.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("caltrust: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("caltrust: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) versionPath(v int) string {
	return filepath.Join(s.dir, fmt.Sprintf("cal-v%04d.json", v))
}

const currentName = "CURRENT"

// Versions lists the stored calibration versions, ascending.
func (s *Store) Versions() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("caltrust: listing store: %w", err)
	}
	var out []int
	for _, e := range entries {
		var v int
		if _, err := fmt.Sscanf(e.Name(), "cal-v%04d.json", &v); err == nil {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Save persists a new calibration version atomically and repoints
// CURRENT at it, returning the version number.
func (s *Store) Save(cal core.Calibration, meta Meta) (int, error) {
	data, err := Encode(cal, meta)
	if err != nil {
		return 0, err
	}
	versions, err := s.Versions()
	if err != nil {
		return 0, err
	}
	next := 1
	if len(versions) > 0 {
		next = versions[len(versions)-1] + 1
	}
	path := s.versionPath(next)
	if err := writeFileAtomic(path, data); err != nil {
		return 0, err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, currentName), []byte(filepath.Base(path)+"\n")); err != nil {
		return 0, err
	}
	return next, nil
}

// Load reads and verifies one stored version.
func (s *Store) Load(version int) (core.Calibration, Envelope, error) {
	return ReadFile(s.versionPath(version))
}

// Current reads and verifies the version CURRENT points at, returning
// the calibration, its envelope, and the version number.
func (s *Store) Current() (core.Calibration, Envelope, int, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, currentName))
	if err != nil {
		return core.Calibration{}, Envelope{}, 0, fmt.Errorf("caltrust: reading CURRENT: %w", err)
	}
	name := string(bytes.TrimSpace(data))
	var v int
	if _, err := fmt.Sscanf(name, "cal-v%04d.json", &v); err != nil {
		return core.Calibration{}, Envelope{}, 0, fmt.Errorf("%w: CURRENT points at %q", ErrCorrupt, name)
	}
	cal, env, err := s.Load(v)
	if err != nil {
		return core.Calibration{}, Envelope{}, 0, err
	}
	return cal, env, v, nil
}
