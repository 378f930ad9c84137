// Package dead is the facade of the deadexport fixture module: like the
// privmem root package, it aliases an internal type.
package dead

import (
	"fmt"

	"example.com/dead/internal/lib"
)

// Thing is a facade alias, so every method of lib.Thing is public API.
type Thing = lib.Thing

// Touch references what the facade needs of lib.
func Touch() fmt.Stringer {
	lib.Used()
	return lib.Named(0)
}
