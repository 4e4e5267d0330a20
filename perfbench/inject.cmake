# Included at the end of the repository's project() call. Defers
# including perfbench/CMakeLists.txt until the root CMakeLists.txt has
# finished, so every library target exists when the benchmark links them.
cmake_language(EVAL CODE
    "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
