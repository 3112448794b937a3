package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// bbvet directives are single-line comments of the form
//
//	//bbvet:allow <rule> -- <justification>
//	//bbvet:ordered -- <justification>
//
// placed either at the end of the offending line or on a line of their own
// immediately above it. The justification is mandatory: a suppression
// without a recorded reason is itself a finding.

const (
	directivePrefix = "//bbvet:"
	// directiveRule is the pseudo-rule name under which malformed and
	// unused directives are reported. It is not suppressible.
	directiveRule = "directive"
)

type lineKey struct {
	file string
	line int
}

type allowDirective struct {
	pos  token.Position
	rule string
	used bool
}

type orderedDirective struct {
	pos  token.Position
	used bool
}

type directiveSet struct {
	allowAt   map[lineKey][]*allowDirective
	orderedAt map[lineKey]*orderedDirective
}

func newDirectiveSet() *directiveSet {
	return &directiveSet{
		allowAt:   make(map[lineKey][]*allowDirective),
		orderedAt: make(map[lineKey]*orderedDirective),
	}
}

// merge folds another package's directives into s. The directive values
// are shared (not copied), so a use recorded through either set — package
// pass or module pass — is visible to the final staleness audit.
func (s *directiveSet) merge(o *directiveSet) {
	for k, ds := range o.allowAt {
		s.allowAt[k] = append(s.allowAt[k], ds...)
	}
	for k, d := range o.orderedAt {
		s.orderedAt[k] = d
	}
}

// collectDirectives scans every comment in the package for bbvet
// directives, returning the suppression set plus findings for malformed
// directives (unknown kind, unknown rule, missing justification).
func collectDirectives(fset *token.FileSet, files []*ast.File) (*directiveSet, []Finding) {
	set := newDirectiveSet()
	var findings []Finding
	malformed := func(pos token.Position, format string, args ...any) {
		findings = append(findings, Finding{Pos: pos, Rule: directiveRule, Message: fmt.Sprintf(format, args...)})
	}
	for _, file := range files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				body := strings.TrimPrefix(c.Text, directivePrefix)
				switch {
				case strings.HasPrefix(body, "allow"):
					rule, just := splitDirective(strings.TrimPrefix(body, "allow"))
					switch {
					case rule == "":
						malformed(pos, "//bbvet:allow needs a rule name: //bbvet:allow <rule> -- <justification>")
					case !isRuleName(rule):
						malformed(pos, "//bbvet:allow names unknown rule %q (known: %s)", rule, strings.Join(RuleNames(), ", "))
					case just == "":
						malformed(pos, "//bbvet:allow %s needs a justification: //bbvet:allow %s -- <why>", rule, rule)
					default:
						key := lineKey{pos.Filename, pos.Line}
						set.allowAt[key] = append(set.allowAt[key], &allowDirective{pos: pos, rule: rule})
					}
				case strings.HasPrefix(body, "ordered"):
					rule, just := splitDirective(strings.TrimPrefix(body, "ordered"))
					if rule != "" || just == "" {
						malformed(pos, "//bbvet:ordered needs a justification: //bbvet:ordered -- <why iteration order cannot matter>")
						continue
					}
					set.orderedAt[lineKey{pos.Filename, pos.Line}] = &orderedDirective{pos: pos}
				default:
					kind := body
					if i := strings.IndexAny(kind, " \t"); i >= 0 {
						kind = kind[:i]
					}
					malformed(pos, "unknown bbvet directive %q (want allow or ordered)", kind)
				}
			}
		}
	}
	return set, findings
}

// splitDirective parses "<head> -- <justification>" and returns the head
// (may be empty) and the justification. Trailing "// want ..." expectation
// comments — used by the analyzer's own fixtures — are not part of the
// justification.
func splitDirective(s string) (head, justification string) {
	if i := strings.Index(s, "// want"); i >= 0 {
		s = s[:i]
	}
	head = strings.TrimSpace(s)
	if i := strings.Index(head, "--"); i >= 0 {
		justification = strings.TrimSpace(head[i+2:])
		head = strings.TrimSpace(head[:i])
	}
	return head, justification
}

// allows reports whether an //bbvet:allow for rule covers the given
// position (same line, or the line immediately above), marking the
// directive used.
func (s *directiveSet) allows(pos token.Position, rule string) bool {
	d := s.allowFor(pos, rule)
	if d != nil {
		d.used = true
	}
	return d != nil
}

// allowFor returns the //bbvet:allow for rule covering pos, or nil, without
// marking it used.
func (s *directiveSet) allowFor(pos token.Position, rule string) *allowDirective {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range s.allowAt[lineKey{pos.Filename, line}] {
			if d.rule == rule {
				return d
			}
		}
	}
	return nil
}

// ordered reports whether an //bbvet:ordered directive covers the given
// position, marking it used.
func (s *directiveSet) ordered(pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d, ok := s.orderedAt[lineKey{pos.Filename, line}]; ok {
			d.used = true
			return true
		}
	}
	return false
}

// unused returns findings for directives that suppressed nothing: a stale
// suppression must be deleted, not carried along.
func (s *directiveSet) unused() []Finding {
	var findings []Finding
	for _, ds := range s.allowAt {
		for _, d := range ds {
			if !d.used {
				findings = append(findings, Finding{
					Pos:     d.pos,
					Rule:    directiveRule,
					Message: fmt.Sprintf("unused //bbvet:allow %s directive suppresses nothing; delete it", d.rule),
				})
			}
		}
	}
	for _, d := range s.orderedAt {
		if !d.used {
			findings = append(findings, Finding{
				Pos:     d.pos,
				Rule:    directiveRule,
				Message: "unused //bbvet:ordered directive covers no map iteration that needs it; delete it",
			})
		}
	}
	return findings
}
