# Forwards to the repository's build-time git sha script (see the comment
# in ../CMakeLists.txt for why this file exists).
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/git_sha.cmake)
