// Fixture: its own .cpp does not keep orphan.hpp alive.  Never compiled.
#include "lib/orphan.hpp"
