package core_test

import (
	"encoding/json"
	"testing"

	"compreuse/internal/bench"
	"compreuse/internal/core"
)

// FuzzParseLedger feeds corrupt decision ledgers to ParseLedger, the
// decoder crcserve's -priors file goes through. A ledger must parse or
// return an error, never panic, and whatever parses must survive a
// serialize-and-parse round trip unchanged. The seeds are GNUGO's ledger
// at O0 and with dependence keys (the program whose dep-key second
// chance admits a segment, so its records carry the dep fields), each
// cut to one record of every shape: the fuzzer spends its time
// minimizing interesting inputs, which a 20 KiB seed would swallow.
//
//	go test -run FuzzParseLedger -fuzz FuzzParseLedger -fuzztime 10s ./internal/core/
func FuzzParseLedger(f *testing.F) {
	p, err := bench.ByName("GNUGO")
	if err != nil {
		f.Fatal(err)
	}
	for _, dep := range []bool{false, true} {
		o := p.RunOptions("O0")
		o.MainArgs = append([]int64(nil), o.MainArgs...)
		o.MainArgs[1] = max(1, o.MainArgs[1]/8)
		o.MinFreq = 8
		o.DepKeys = dep
		rep, err := core.Run(o)
		if err != nil {
			f.Fatal(err)
		}
		rep.Ledger = oneOfEachShape(rep.Ledger)
		data, err := rep.LedgerJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`[{"segment":"s","n":-1,"reuse_rate":1e308}]`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := core.ParseLedger(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(recs)
		if err != nil {
			t.Fatalf("re-serializing a parsed ledger: %v", err)
		}
		back, err := core.ParseLedger(out)
		if err != nil {
			t.Fatalf("re-parsing a re-serialized ledger: %v\n%s", err, out)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip kept %d of %d records", len(back), len(recs))
		}
		for i := range back {
			if back[i] != recs[i] {
				t.Fatalf("record %d changed in the round trip:\n got %+v\nwant %+v", i, back[i], recs[i])
			}
		}
	})
}

// oneOfEachShape keeps the first accepted, the first rejected and the
// first dependence-keyed record of a ledger.
func oneOfEachShape(ledger []core.DecisionRecord) []core.DecisionRecord {
	var out []core.DecisionRecord
	shapes := []func(core.DecisionRecord) bool{
		func(r core.DecisionRecord) bool { return r.Accepted },
		func(r core.DecisionRecord) bool { return !r.Accepted },
		func(r core.DecisionRecord) bool { return r.DepKeyWidth > 0 },
	}
	for _, shape := range shapes {
		for _, r := range ledger {
			if shape(r) {
				out = append(out, r)
				break
			}
		}
	}
	return out
}
