package profile

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"compreuse/internal/reusetab"
)

// goldenProfiles is a two-segment profile whose census keys include zero
// bytes and bytes at or above 0x80, plus a segment with no census.
func goldenProfiles() map[string]*SegProfile {
	return map[string]*SegProfile{
		"k@func": {
			Name: "k@func", TableName: "k@func", N: 100, Nds: 4,
			MeasuredC: 333.5, Overhead: 45, KeyBytes: 4,
			Census: []reusetab.KeyCount{
				{Key: "\x00\x00\x00\x00", Count: 50, Rank: 0},
				{Key: string(reusetab.AppendInt(nil, -9)), Count: 30, Rank: 1},
				{Key: "\x80\xff\x00\x7f", Count: 15, Rank: 2},
				{Key: "", Count: 5, Rank: 3},
			},
		},
		"k@loop1": {
			Name: "k@loop1", TableName: "k@func", N: 7, Nds: 0,
			MeasuredC: 12, Overhead: 45, KeyBytes: 8,
		},
	}
}

// TestSnapshotGolden pins the snapshot file format: Save's bytes must
// equal testdata/snapshot.golden.json, which was written by the earlier
// encoder that hex-encoded census keys while building the snapshot (less
// the access_counts it also wrote; see TestSnapshotOldFormat), and
// loading the file must give back the same profiles. The file is a fixed
// record of that format, not regenerated.
func TestSnapshotGolden(t *testing.T) {
	profs := goldenProfiles()
	var buf bytes.Buffer
	if err := ToSnapshot("p.c", "O3", []int64{7, 20000}, []int64{0, 100, 7}, profs).Save(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/snapshot.golden.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot bytes differ from %s:\n%s", path, buf.String())
	}

	snap, err := LoadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Program != "p.c" || snap.OptLevel != "O3" ||
		!reflect.DeepEqual(snap.Args, []int64{7, 20000}) || !reflect.DeepEqual(snap.Freq, []int64{0, 100, 7}) {
		t.Fatalf("header lost: %+v", snap)
	}
	if got := snap.Profiles(); !reflect.DeepEqual(got, profs) {
		for name, sp := range got {
			t.Errorf("%s: got %+v, want %+v", name, sp, profs[name])
		}
		t.Fatal("profiles did not round-trip")
	}
}

// TestSnapshotOldFormat loads testdata/snapshot.access_counts.json, the
// golden snapshot as it was saved while segments still carried their
// table's access counts: a file written then must load, and give the
// same profiles as the current golden file.
func TestSnapshotOldFormat(t *testing.T) {
	load := func(path string) map[string]*SegProfile {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		snap, err := LoadSnapshot(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return snap.Profiles()
	}
	old, cur := load("testdata/snapshot.access_counts.json"), load("testdata/snapshot.golden.json")
	if !reflect.DeepEqual(old, cur) {
		for name, sp := range old {
			t.Errorf("%s: old file gives %+v, current %+v", name, sp, cur[name])
		}
		t.Fatal("an old-format snapshot loads into different profiles")
	}
}

// FuzzLoadSnapshot feeds LoadSnapshot arbitrary bytes (a snapshot arrives
// from outside the program through cmd/crc -profile-in). Input must
// either fail to load, or load into a snapshot whose Profiles() does not
// panic and survives a Save → LoadSnapshot round trip unchanged.
func FuzzLoadSnapshot(f *testing.F) {
	golden, err := os.ReadFile("testdata/snapshot.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	old, err := os.ReadFile("testdata/snapshot.access_counts.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	for _, s := range []string{
		"{not json",
		"{}",
		`{"segments": {"x": {"census": [{"key": "zz", "count": 1, "rank": 0}]}}}`,
		`{"segments": {"a": null}}`,
		`{"segments": {"a": {"access_counts": []}}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		profs := snap.Profiles()
		var buf bytes.Buffer
		if err := snap.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		back, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("saved snapshot does not load: %v\n%s", err, buf.Bytes())
		}
		if got := back.Profiles(); !reflect.DeepEqual(got, profs) {
			t.Fatalf("profiles changed across Save/Load:\n got %+v\nwant %+v", got, profs)
		}
	})
}
