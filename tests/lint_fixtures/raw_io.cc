// lint-as: src/ooc/some_store.cpp
// Raw POSIX I/O is only legal inside the FileBackend (and faults.cpp).
// Mapping the file is raw I/O too: loads and stores bypass the backend.
#include <sys/mman.h>
#include <unistd.h>

void bad(int fd, char* buf, unsigned char* vec) {
  read(fd, buf, 8);               // expect(raw-io)
  write(fd, buf, 8);              // expect(raw-io)
  pread(fd, buf, 8, 0);           // expect(raw-io)
  pwrite(fd, buf, 8, 0);          // expect(raw-io)
  ::read(fd, buf, 8);             // expect(raw-io)
  void* map = ::mmap(nullptr, 4096, PROT_READ,  // expect(raw-io)
                     MAP_SHARED, fd, 0);
  msync(map, 4096, MS_SYNC);      // expect(raw-io)
  madvise(map, 4096, MADV_DONTNEED);  // expect(raw-io)
  mincore(map, 4096, vec);        // expect(raw-io)
  munmap(map, 4096);              // expect(raw-io)
}

struct Wrapper;

void fine(Wrapper& w, Wrapper* p) {
  w.read(1);         // member access: not a raw syscall
  p->write(2);       // member access: not a raw syscall
  Wrapper::read(3);  // class-qualified: not a raw syscall
  // A comment mentioning read( and pwrite( must not fire.
  const char* s = "read(fd) in a string must not fire";
  (void)s;
}
