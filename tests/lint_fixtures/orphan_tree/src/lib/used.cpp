// Fixture: a header's own .cpp does not count as a consumer, but its
// directory-relative include of a sibling header does.  Never compiled.
#include "lib/used.hpp"
#include "detail.hpp"
