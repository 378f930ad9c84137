package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression policy. A finding is silenced by a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// placed either at the end of the offending line or alone on the line
// directly above it. The reason is mandatory: an allow without one is not a
// suppression, it is a new diagnostic — the whole point of the escape hatch
// is that every accepted violation carries a written justification a
// reviewer can audit (DESIGN.md §8).
//
// The interprocedural certifier (certify.go) adds a second directive for
// whole functions rather than single lines:
//
//	//lint:trust <func> <reason>
//
// placed in the doc comment of the function it names; see summary.go.

const allowPrefix = "//lint:allow"

type suppressionSet struct {
	// reasons indexes well-formed suppressions by file:line:analyzer for
	// both the comment's own line and the line below it, mapping to the
	// written reason.
	reasons map[string]string
	// malformed holds allow comments with no reason or no analyzer name;
	// they are re-reported as findings.
	malformed []Diagnostic
}

func suppressionKey(file string, line int, analyzer string) string {
	var b strings.Builder
	b.WriteString(file)
	b.WriteByte('#')
	b.WriteString(analyzer)
	b.WriteByte('#')
	// Lines are small; manual itoa avoids importing strconv for one call.
	if line == 0 {
		b.WriteByte('0')
	}
	var digits [20]byte
	n := len(digits)
	for line > 0 {
		n--
		digits[n] = byte('0' + line%10)
		line /= 10
	}
	b.Write(digits[n:])
	return b.String()
}

// collectSuppressions scans every comment in files for //lint:allow
// directives.
func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressionSet {
	set := &suppressionSet{reasons: map[string]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				pos := fset.Position(c.Pos())
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if name == "" || reason == "" {
					set.malformed = append(set.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "lintallow",
						Message:  "//lint:allow needs an analyzer name and a written reason: //lint:allow <analyzer> <reason>",
					})
					continue
				}
				// The directive covers findings on its own line (trailing
				// comment) and on the next line (comment above).
				set.reasons[suppressionKey(pos.Filename, pos.Line, name)] = reason
				set.reasons[suppressionKey(pos.Filename, pos.Line+1, name)] = reason
			}
		}
	}
	return set
}

// allowed returns the written reason suppressing analyzer findings at
// file:line, if any.
func (s *suppressionSet) allowed(file string, line int, analyzer string) (string, bool) {
	reason, ok := s.reasons[suppressionKey(file, line, analyzer)]
	return reason, ok
}

// annotate marks suppressed diagnostics (keeping them, with the allow
// reason attached) and appends the malformed-allow findings.
func (s *suppressionSet) annotate(diags []Diagnostic) []Diagnostic {
	s.mark(diags)
	return append(diags, s.malformed...)
}

func (s *suppressionSet) mark(diags []Diagnostic) {
	for i := range diags {
		if reason, ok := s.allowed(diags[i].Pos.Filename, diags[i].Pos.Line, diags[i].Analyzer); ok {
			diags[i].Suppressed = true
			diags[i].Reason = reason
		}
	}
}

// MarkSuppressed marks the diagnostics a well-formed //lint:allow in pkgs'
// files silences. It serves whole-program checks, whose findings no
// per-package run annotates; malformed allows are left to that run.
func MarkSuppressed(pkgs []*Package, diags []Diagnostic) {
	for _, pkg := range pkgs {
		collectSuppressions(pkg.Fset, pkg.Files).mark(diags)
	}
}
