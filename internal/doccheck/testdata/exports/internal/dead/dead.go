// Package dead is the fixture of TestInternalExportsHaveCallers: Unused,
// T.Unused and Orphan have no non-test reference; everything else here does.
package dead

// T carries one called, one interface-declared and one dead method.
type T struct{}

// Called is called from cmd/app.
func (T) Called() {}

// Shaped is declared by Shape, so an interface call may reach it.
func (T) Shaped() {}

// Unused is the dead method.
func (T) Unused() {}

// Shape declares Shaped.
type Shape interface{ Shaped() }

// T is a Shape.
var _ Shape = T{}

// Orphan is the dead type: only its own method's receiver names it.
type Orphan struct{}

// Shaped is declared by Shape, so the method itself is not reported.
func (o Orphan) Shaped() {}

// Live is called from cmd/app.
func Live() T { return T{} }

// Helper is called only inside this package.
func Helper() int { return 1 }

// Unused is the dead function.
func Unused() int { return Helper() }
