// Fixture: included by examples/main.cpp.  Never compiled.
#pragma once
