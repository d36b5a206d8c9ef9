// Fixture: included only by perfbench/, which counts.  Never compiled.
#pragma once
