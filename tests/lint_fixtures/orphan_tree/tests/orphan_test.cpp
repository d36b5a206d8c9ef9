// Fixture: tests alone do not keep a header alive.  Never compiled.
#include "lib/orphan.hpp"
