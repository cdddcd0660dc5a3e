package dead

import "testing"

// A test caller does not count.
func TestUnused(t *testing.T) { Unused(); T{}.Unused(); Orphan{}.Shaped() }
