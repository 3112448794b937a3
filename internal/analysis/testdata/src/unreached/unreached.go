// Fixture for the unreached rule: a function is live when a root reaches
// it — init, a package-level var initializer, or a method the standard
// library calls through an interface it declares.
package unreached

import (
	"fmt"
	"sort"
)

// table reaches its entries only through the variable.
var table = map[string]func() int{"one": one, "two": two}

func one() int { return helper() }

func helper() int { return 1 }

func two() int {
	p := pool[int]{vals: []int{2}}
	return p.get(0)
}

// pool's methods are called through an instantiation, pool[int].
type pool[T any] struct{ vals []T }

func (p *pool[T]) get(i int) T { return p.vals[i] }

func (p *pool[T]) unused() int { return len(p.vals) } // want `\[unreached\] unreached\.\(\*pool\)\.unused`

func init() { fromInit() }

func fromInit() { sort.Sort(byLen(nil)) } //bbvet:allow unreached -- init calls it // want `\[stale-directive\] unused //bbvet:allow unreached`

func uncalled() int { return 2 } // want `\[unreached\] unreached\.uncalled is reached from no main, init`

func calledByUncalled() int { return uncalled() } // want `\[unreached\] unreached\.calledByUncalled`

// byLen's methods are called by package sort, through sort.Interface.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// label's String is called by package fmt, through fmt.Stringer.
type label int

func (l label) String() string { return fmt.Sprint(int(l)) }

// privateName matches no exported stdlib interface's method set.
func (l label) privateName() string { return "" } // want `\[unreached\] unreached\.\(label\)\.privateName`

func entry() int { return below() } //bbvet:allow unreached -- a test-side entry point

// below is reached from the suppressed entry, so it needs no directive.
func below() int { return 3 }

func redundant() int { return 4 } //bbvet:allow unreached -- reached from entryToo already // want `\[stale-directive\] unused //bbvet:allow unreached`

func entryToo() int { return redundant() } //bbvet:allow unreached -- a second test-side entry point
