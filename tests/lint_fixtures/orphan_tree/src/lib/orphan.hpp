// Fixture: the one orphan — only its own .cpp and a test include it.
// Never compiled.
#pragma once
