// Command second is the fixture's second module, as perfbench is
// privmem's: its references keep an export alive.
package main

import "example.com/dead/internal/lib"

func main() { lib.OnlySecond() }
