//go:build race

package local

// scalarPrefetchWindow is the scatter look-ahead of the word and boxed
// planes (see prefetchWindow). Their touch loads race with the owners'
// plain stores — benign by construction, since the loaded values are
// discarded and aligned 64-bit loads cannot tear, but exactly what the
// detector exists to flag — so race builds turn the window off.
const scalarPrefetchWindow = 0
