package server

import (
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
)

// vetBadProg is rejected by the analyzer: the recursive call sits under
// "|", an error-severity lint.
const vetBadProg = "spin :- ins.tick | spin.\n?- spin."

func TestVetVerbMatchesLocalAnalysis(t *testing.T) {
	s := newBankServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()

	diags, fragment, err := c.Vet(vetBadProg)
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	want, err := analysis.VetSource(vetBadProg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diags, want.Diags) {
		t.Errorf("server diagnostics differ from local analysis:\nserver: %v\nlocal:  %v", diags, want.Diags)
	}
	if fragment != want.Fragment {
		t.Errorf("server fragment = %q, local = %q", fragment, want.Fragment)
	}

	// VET is stateless: a parse failure reports CodeParse, nothing loads.
	if _, _, err := c.Vet("p( :- ."); err == nil {
		t.Error("Vet on unparseable source should fail")
	} else {
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeParse {
			t.Errorf("Vet parse failure = %v, want Code %q", err, CodeParse)
		}
	}
}

func TestLoadRejectsVetErrors(t *testing.T) {
	s := newBankServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()

	err := c.Load(vetBadProg)
	if err == nil {
		t.Fatal("Load should reject a program with error-severity diagnostics")
	}
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeVet {
		t.Fatalf("Load error = %v, want Code %q", err, CodeVet)
	}
	if !strings.Contains(se.Msg, "recursion-under-conc") {
		t.Errorf("rejection message %q should carry the lint ID", se.Msg)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.VetRejects != 1 {
		t.Errorf("Stats.VetRejects = %d, want 1", st.VetRejects)
	}

	rec := httptest.NewRecorder()
	obs.Handler(s.Metrics()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "td_vet_rejections_total 1") {
		t.Errorf("/metrics should report td_vet_rejections_total 1:\n%s", body)
	}

	// Warnings do not block LOAD: only error-severity diagnostics reject.
	if err := c.Load("go :- nothere(X), ins.log(X)."); err != nil {
		t.Errorf("Load with warnings only should succeed: %v", err)
	}
}

func TestInitialProgramVetted(t *testing.T) {
	_, err := New(Options{Program: vetBadProg})
	if err == nil {
		t.Fatal("New should reject an initial program with vet errors")
	}
	var ve *analysis.VetError
	if !errors.As(err, &ve) {
		t.Errorf("New error = %T (%v), want wrapped *analysis.VetError", err, err)
	}
}
