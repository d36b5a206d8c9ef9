// Fixture: included only through a directory-relative path.  Never compiled.
#pragma once
