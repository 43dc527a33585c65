// Package analysis implements the load-time static-analysis pass over
// compiled guarded normal Datalog± programs: termination classification
// (no-existentials, weak acyclicity, joint acyclicity, guard-acyclicity),
// chase-termination certificates with a concrete depth bound, and
// position-accurate diagnostics (dead rules, underivable predicates,
// negation cycles, suspicious patterns).
//
// The engine consumes the certificate: a guard-acyclic program's chase
// derives every atom at forest depth ≤ Certificate.DepthBound, and the
// bounded chase at exactly that depth is complete, so wfs loading clamps
// the adaptive-deepening ladder to the single certified rung and marks
// the resulting models exact (core.Options.CertifiedDepth). Everything
// else in the report is advisory: wfsd rejects programs with Error
// diagnostics at session creation, wfslint renders the report offline.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/atom"
	"repro/internal/program"
)

// Severity grades a diagnostic. Errors identify rules that can never
// contribute to any model (wfsd refuses such programs at session
// creation); warnings identify constructs that are almost certainly not
// what the author meant; infos surface structural facts worth knowing
// (negation cycles, unused derived predicates, singleton variables).
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its lower-case name, the form the
// wfsd API and wfslint -json emit.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the lower-case severity names.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"error"`:
		*s = Error
	case `"warning"`:
		*s = Warning
	case `"info"`:
		*s = Info
	default:
		return fmt.Errorf("analysis: unknown severity %s", b)
	}
	return nil
}

// Diagnostic is one finding, anchored to a source line when the finding
// concerns a specific rule (Line is 1-based; 0 for program-level
// findings).
type Diagnostic struct {
	Severity Severity `json:"severity"`
	// Code is a stable machine-readable identifier: "unsatisfiable-rule",
	// "vacuous-negation", "unsatisfiable-constraint", "negation-cycle",
	// "unused-predicate", "singleton-variable".
	Code    string `json:"code"`
	Line    int    `json:"line,omitempty"`
	Rule    string `json:"rule,omitempty"` // source form of the offending rule
	Pred    string `json:"pred,omitempty"` // predicate the finding concerns
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	if d.Line > 0 {
		return fmt.Sprintf("line %d: %s [%s] %s", d.Line, d.Severity, d.Code, d.Message)
	}
	return fmt.Sprintf("%s [%s] %s", d.Severity, d.Code, d.Message)
}

// RuleInfo records the per-rule structural facts of the report: guard
// predicate, linearity (single positive body atom), and whether the rule
// introduces existentials or uses negation.
type RuleInfo struct {
	Idx         int    `json:"idx"`
	Line        int    `json:"line,omitempty"`
	Label       string `json:"label"`
	HeadPred    string `json:"head"`
	GuardPred   string `json:"guard"`
	Linear      bool   `json:"linear"`
	Existential bool   `json:"existential"`
	Negated     bool   `json:"negated"`
}

// Report is the full result of Analyze.
type Report struct {
	Rules       int `json:"rules"`
	Facts       int `json:"facts"`
	Preds       int `json:"preds"`
	Constraints int `json:"constraints,omitempty"`
	EGDs        int `json:"egds,omitempty"`

	// Stratified reports whether the program admits a stratification (in
	// which case the WFS is two-valued and coincides with the perfect
	// model).
	Stratified bool `json:"stratified"`

	// Classes lists the termination classes the program falls into, in
	// fixed order: "no-existentials", "guard-acyclic", "weakly-acyclic",
	// "jointly-acyclic". Any of them proves the guarded chase terminates.
	Classes []string `json:"classes,omitempty"`
	// Terminates reports that at least one class applies.
	Terminates bool `json:"terminates"`
	// Certificate carries the concrete depth bound when one exists
	// (guard-acyclic programs); nil otherwise — the other classes prove
	// termination but give no small static bound on forest depth.
	Certificate *Certificate `json:"certificate,omitempty"`

	// NegCycles lists the predicate components with a genuine negation
	// cycle — the predicates that force real well-founded evaluation
	// rather than a stratified least-fixpoint pass.
	NegCycles [][]string `json:"negation_cycles,omitempty"`

	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	RuleInfo    []RuleInfo   `json:"rule_info,omitempty"`
}

// Errors returns the Error-severity diagnostics.
func (r *Report) Errors() []Diagnostic { return r.bySeverity(Error) }

// Warnings returns the Warning-severity diagnostics.
func (r *Report) Warnings() []Diagnostic { return r.bySeverity(Warning) }

func (r *Report) bySeverity(s Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == s {
			out = append(out, d)
		}
	}
	return out
}

// Counts returns the number of error, warning, and info diagnostics.
func (r *Report) Counts() (errors, warnings, infos int) {
	for _, d := range r.Diagnostics {
		switch d.Severity {
		case Error:
			errors++
		case Warning:
			warnings++
		default:
			infos++
		}
	}
	return
}

// HasErrors reports whether any Error-severity diagnostic was produced.
func (r *Report) HasErrors() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Analyze runs the full static pass over a compiled program: termination
// classification and certification over the rule set, and diagnostics
// against the EDB signature (db) and the query workload (queries mark
// their predicates as used). The pass is pure — it never mutates the
// program or interns into its store — and runs in time linear-ish in the
// program size, so load paths run it unconditionally.
func Analyze(prog *program.Program, db program.Database, queries []*program.Query) *Report {
	u := newUniverse(prog, db, queries)
	rep := &Report{
		Rules:       len(prog.Rules),
		Facts:       len(db),
		Preds:       len(u.preds),
		Constraints: len(prog.Constraints),
		EGDs:        len(prog.EGDs),
	}
	_, rep.Stratified = prog.Stratify()

	// Termination classes, cheapest first.
	noExist := true
	for _, r := range prog.Rules {
		if len(r.Exist) > 0 {
			noExist = false
			break
		}
	}
	if noExist {
		rep.Classes = append(rep.Classes, "no-existentials")
	}
	if cert := Certify(prog); cert != nil {
		rep.Classes = append(rep.Classes, "guard-acyclic")
		rep.Certificate = cert
	}
	if weaklyAcyclic(u) {
		rep.Classes = append(rep.Classes, "weakly-acyclic")
	}
	if jointlyAcyclic(u) {
		rep.Classes = append(rep.Classes, "jointly-acyclic")
	}
	rep.Terminates = len(rep.Classes) > 0

	rep.NegCycles = negationCycles(u)
	rep.Diagnostics = diagnose(u, rep.NegCycles)
	rep.RuleInfo = ruleInfo(u)
	return rep
}

// universe is the shared per-analysis view of the program: the referenced
// predicates with dense indexes, and the occurrence sets the individual
// passes consume.
type universe struct {
	prog    *program.Program
	db      program.Database
	queries []*program.Query

	preds   []atom.PredID        // dense index → PredID, sorted
	predIdx map[atom.PredID]int  // PredID → dense index
	edb     map[atom.PredID]bool // predicates with database facts
}

func newUniverse(prog *program.Program, db program.Database, queries []*program.Query) *universe {
	u := &universe{prog: prog, db: db, queries: queries,
		predIdx: make(map[atom.PredID]int), edb: make(map[atom.PredID]bool)}
	add := func(p atom.PredID) {
		if _, ok := u.predIdx[p]; !ok {
			u.predIdx[p] = -1 // dense index assigned after sorting
			u.preds = append(u.preds, p)
		}
	}
	addPats := func(pats []atom.Pattern) {
		for _, p := range pats {
			add(p.Pred)
		}
	}
	for _, r := range prog.Rules {
		add(r.Head.Pred)
		addPats(r.PosBody)
		addPats(r.NegBody)
	}
	for _, c := range prog.Constraints {
		addPats(c.PosBody)
		addPats(c.NegBody)
	}
	for _, e := range prog.EGDs {
		addPats(e.PosBody)
	}
	last := atom.PredID(-1)
	for _, a := range db {
		// Facts come grouped by predicate, so most of them skip the maps.
		if p := prog.Store.PredOf(a); p != last {
			add(p)
			u.edb[p] = true
			last = p
		}
	}
	for _, q := range queries {
		addPats(q.Pos)
		addPats(q.Neg)
	}
	sort.Slice(u.preds, func(i, j int) bool { return u.preds[i] < u.preds[j] })
	for i, p := range u.preds {
		u.predIdx[p] = i
	}
	return u
}

func (u *universe) name(p atom.PredID) string { return u.prog.Store.PredName(p) }

func (u *universe) sig(p atom.PredID) string {
	return fmt.Sprintf("%s/%d", u.prog.Store.PredName(p), u.prog.Store.PredArity(p))
}
