package main

import "testing"

// TestCheckClassifyCountsMissLines checks that an emit=misses response
// must carry exactly one line per miss the summary counts.
func TestCheckClassifyCountsMissLines(t *testing.T) {
	body := []byte(`{"i":3,"hit":false}
{"i":9,"hit":false}
{"summary":{"accesses":10,"misses":2,"conflict":1,"capacity":1,"compulsory":1}}
`)
	if _, ok := checkClassify(newChecks(), body, countLines(body), 10); !ok {
		t.Fatal("a response with one line per miss failed the checks")
	}
	short := body[len(`{"i":3,"hit":false}`)+1:]
	chk := newChecks()
	if _, ok := checkClassify(chk, short, countLines(short), 10); ok || chk.ok() {
		t.Fatal("a response missing a miss line passed the checks")
	}
}
