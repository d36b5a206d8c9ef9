// Fixture: a program; a commented-out include is no consumer.
// Never compiled.
#include "lib/used.hpp"
// #include "lib/orphan.hpp"
