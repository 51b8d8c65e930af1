package profile

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"compreuse/internal/reusetab"
)

// Snapshot is the serializable profiling artifact — the analogue of
// gprof's gmon.out in the paper's workflow, holding both the
// execution-frequency profile and the value-set profiles. A snapshot taken
// by one compiler invocation can drive the transformation in a later one
// (cmd/crc's -profile-out / -profile-in), exactly the offline
// profile-then-compile split the paper describes.
type Snapshot struct {
	// Program and OptLevel identify the configuration the profile was
	// taken under; a snapshot only applies to the same source at the same
	// O-level (node ids and measured cycles depend on both).
	Program  string  `json:"program"`
	OptLevel string  `json:"opt_level"`
	Args     []int64 `json:"args,omitempty"`
	// Freq is the per-node execution-frequency vector.
	Freq []int64 `json:"freq"`
	// Segments holds the value-set profiles keyed by segment name.
	Segments map[string]*SegSnapshot `json:"segments"`
}

// SegSnapshot is one segment's serialized profile.
type SegSnapshot struct {
	Name      string     `json:"name"`
	TableName string     `json:"table"`
	N         int64      `json:"n"`
	Nds       int64      `json:"nds"`
	MeasuredC float64    `json:"c_cycles"`
	Overhead  float64    `json:"o_cycles"`
	KeyBytes  int        `json:"key_bytes"`
	Census    []KeyEntry `json:"census,omitempty"`
}

// KeyEntry is one census line. Key holds the raw input-set bytes; the
// JSON form hex-encodes them, so encoding cost is paid only when a
// snapshot is saved.
type KeyEntry struct {
	Key   string
	Count int64
	Rank  int
}

// keyEntryJSON is KeyEntry's serialized form.
type keyEntryJSON struct {
	KeyHex string `json:"key"`
	Count  int64  `json:"count"`
	Rank   int    `json:"rank"`
}

// MarshalJSON writes the entry with a hex-encoded key.
func (e KeyEntry) MarshalJSON() ([]byte, error) {
	return json.Marshal(keyEntryJSON{KeyHex: hex.EncodeToString([]byte(e.Key)), Count: e.Count, Rank: e.Rank})
}

// UnmarshalJSON reads an entry written by MarshalJSON, rejecting a key
// that is not valid hex.
func (e *KeyEntry) UnmarshalJSON(b []byte) error {
	var j keyEntryJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	key, err := hex.DecodeString(j.KeyHex)
	if err != nil {
		return fmt.Errorf("bad census key %q: %w", j.KeyHex, err)
	}
	*e = KeyEntry{Key: string(key), Count: j.Count, Rank: j.Rank}
	return nil
}

// ToSnapshot packages profiles and a frequency vector.
func ToSnapshot(program, optLevel string, args []int64, freq []int64,
	profiles map[string]*SegProfile) *Snapshot {
	s := &Snapshot{
		Program:  program,
		OptLevel: optLevel,
		Args:     args,
		Freq:     freq,
		Segments: map[string]*SegSnapshot{},
	}
	for name, sp := range profiles {
		ss := &SegSnapshot{
			Name:      sp.Name,
			TableName: sp.TableName,
			N:         sp.N,
			Nds:       sp.Nds,
			MeasuredC: sp.MeasuredC,
			Overhead:  sp.Overhead,
			KeyBytes:  sp.KeyBytes,
		}
		if len(sp.Census) > 0 {
			ss.Census = make([]KeyEntry, len(sp.Census))
			for i, kc := range sp.Census {
				ss.Census[i] = KeyEntry(kc)
			}
		}
		s.Segments[name] = ss
	}
	return s
}

// Profiles reconstructs the in-memory profile map from a snapshot.
func (s *Snapshot) Profiles() map[string]*SegProfile {
	out := map[string]*SegProfile{}
	for name, ss := range s.Segments {
		sp := &SegProfile{
			Name:      ss.Name,
			TableName: ss.TableName,
			N:         ss.N,
			Nds:       ss.Nds,
			MeasuredC: ss.MeasuredC,
			Overhead:  ss.Overhead,
			KeyBytes:  ss.KeyBytes,
		}
		// Save omits an empty list, so empty and absent must load alike.
		if len(ss.Census) > 0 {
			sp.Census = make([]reusetab.KeyCount, len(ss.Census))
			for i, ke := range ss.Census {
				sp.Census[i] = reusetab.KeyCount(ke)
			}
		}
		out[name] = sp
	}
	return out
}

// Save writes the snapshot as indented JSON.
func (s *Snapshot) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// LoadSnapshot reads a snapshot produced by Save. Fields it does not
// know, such as the access_counts that older versions saved per
// segment, are ignored.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("profile snapshot: %w", err)
	}
	if s.Segments == nil {
		s.Segments = map[string]*SegSnapshot{}
	}
	for name, ss := range s.Segments {
		if ss == nil {
			return nil, fmt.Errorf("profile snapshot: segment %q is null", name)
		}
	}
	return &s, nil
}
