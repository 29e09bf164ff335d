# Attaches the benchmark to the repository's own build.  run.py configures
# the repository root with -DCMAKE_PROJECT_fetcam_INCLUDE=<this file>, so
# the runner links the program's targets exactly as its CMakeLists.txt
# defines them (kernel tiers, compile definitions and all).
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} perfbench)
