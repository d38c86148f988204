"""Unit tests for the emulated libc builtins."""

from repro.lang.program import Program
from repro.runtime.os_model import EmulatedOS
from repro.runtime.process import ProcessStatus, run_program


def run_main(source, os_model=None, argv=None):
    program = Program.from_sources({"main.c": source})
    return run_program(program, os_model, argv)


class TestStringBuiltins:
    def test_strcmp_family(self):
        src = """
        int main() {
            int r = 0;
            if (strcmp("abc", "abc") == 0) { r += 1; }
            if (strcmp("abc", "abd") < 0) { r += 2; }
            if (strcasecmp("ON", "on") == 0) { r += 4; }
            if (strncmp("timeout_ms", "timeout", 7) == 0) { r += 8; }
            if (strncasecmp("MaxConn", "maxconn", 7) == 0) { r += 16; }
            return r;
        }
        """
        assert run_main(src).exit_code == 31

    def test_strchr_strstr(self):
        src = """
        int main() {
            char *s = "key=value";
            char *eq = strchr(s, '=');
            if (eq == NULL) { return 1; }
            if (strcmp(eq + 1, "value") != 0) { return 2; }
            if (strstr(s, "=val") == NULL) { return 3; }
            if (strstr(s, "zzz") != NULL) { return 4; }
            return 0;
        }
        """
        assert run_main(src).exit_code == 0

    def test_str_token(self):
        src = """
        int main() {
            char *line = "  listen_port   2121  ";
            char *k = str_token(line, 0);
            char *v = str_token(line, 1);
            if (strcmp(k, "listen_port") != 0) { return 1; }
            if (strcmp(v, "2121") != 0) { return 2; }
            if (str_token(line, 2) != NULL) { return 3; }
            return 0;
        }
        """
        assert run_main(src).exit_code == 0

    def test_case_helpers(self):
        src = """
        int main() {
            if (tolower('A') != 'a') { return 1; }
            if (toupper('z') != 'Z') { return 2; }
            if (!isdigit('7')) { return 3; }
            if (isdigit('x')) { return 4; }
            if (strcmp(str_lower("MiXeD"), "mixed") != 0) { return 5; }
            return 0;
        }
        """
        assert run_main(src).exit_code == 0


class TestConversionBuiltins:
    def test_atoi_happy_path(self):
        assert run_main('int main() { return atoi("123"); }').exit_code == 123

    def test_atoi_garbage_prefix_semantics(self):
        # The paper's unsafe-API example: atoi("1O0") returns 1.
        assert run_main('int main() { return atoi("1O0"); }').exit_code == 1

    def test_atoi_full_garbage_returns_zero(self):
        assert run_main('int main() { return atoi("fast"); }').exit_code == 0

    def test_atoi_overflow_wraps(self):
        # atoi(INT_MAX+1) wraps: the paper notes atoi cannot detect overflow.
        result = run_main('int main() { long v = atoi("2147483648"); return v < 0; }')
        assert result.exit_code == 1

    def test_strtol_with_end_pointer(self):
        src = """
        int main() {
            char *end;
            long v = strtol("512MB", &end, 10);
            if (v != 512) { return 1; }
            if (strcmp(end, "MB") != 0) { return 2; }
            return 0;
        }
        """
        assert run_main(src).exit_code == 0

    def test_strtol_overflow_sets_errno(self):
        src = """
        int main() {
            errno = 0;
            long v = strtol("99999999999999999999999", NULL, 10);
            return errno == 34;
        }
        """
        assert run_main(src).exit_code == 1

    def test_strtol_base_detection(self):
        src = 'int main() { return strtol("0x10", NULL, 0); }'
        assert run_main(src).exit_code == 16

    def test_sscanf_i_conversion_confusion(self):
        # sscanf("%i") on "1O0" parses just "1": silently wrong value.
        src = """
        int main() {
            int v = 7;
            int n = sscanf("1O0", "%i", &v);
            return v * 10 + n;
        }
        """
        assert run_main(src).exit_code == 11

    def test_sscanf_failure_leaves_garbage(self):
        src = """
        int main() {
            int v = 0;
            int n = sscanf("junk", "%d", &v);
            if (n != 0) { return 1; }
            return v != 0;  /* poisoned, not left at 0 */
        }
        """
        assert run_main(src).exit_code == 1

    def test_sprintf_formats(self):
        src = """
        int main() {
            char *s = sprintf("%s=%d", "port", 8080);
            return strcmp(s, "port=8080") == 0;
        }
        """
        assert run_main(src).exit_code == 1


class TestFileBuiltins:
    def test_open_missing_file_fails(self):
        src = 'int main() { return open("/etc/app.conf", 0); }'
        result = run_main(src)
        assert result.exit_code == -1 & 0xFFFFFFFF or result.exit_code == -1

    def test_open_and_read_lines(self):
        os_model = EmulatedOS()
        os_model.add_file("/etc/app.conf", "alpha\nbeta\n")
        src = """
        int main() {
            void *fp = fopen("/etc/app.conf", "r");
            if (fp == NULL) { return 1; }
            char *l1 = fgets(fp);
            char *l2 = fgets(fp);
            char *l3 = fgets(fp);
            if (strcmp(l1, "alpha") != 0) { return 2; }
            if (strcmp(l2, "beta") != 0) { return 3; }
            if (l3 != NULL) { return 4; }
            fclose(fp);
            return 0;
        }
        """
        assert run_main(src, os_model).exit_code == 0

    def test_fopen_directory_for_read_succeeds_but_fgets_fails(self):
        # Mirrors POSIX: fopen(dir, "r") succeeds, reads fail (the
        # MySQL ft_stopword_file vulnerability path).
        os_model = EmulatedOS()
        os_model.add_dir("/data/dir")
        src = """
        int main() {
            void *fp = fopen("/data/dir", "r");
            if (fp == NULL) { return 1; }
            if (fgets(fp) != NULL) { return 2; }
            return 0;
        }
        """
        assert run_main(src, os_model).exit_code == 0

    def test_fopen_directory_for_write_fails(self):
        os_model = EmulatedOS()
        os_model.add_dir("/data/dir")
        src = 'int main() { return fopen("/data/dir", "w") == NULL; }'
        assert run_main(src, os_model).exit_code == 1

    def test_create_file_with_o_creat(self):
        src = """
        int main() {
            int fd = open("/var/log/app.log", 65);
            return fd > 0 ? 0 : 1;
        }
        """
        assert run_main(src).exit_code == 0

    def test_access_write_permission(self):
        os_model = EmulatedOS()
        os_model.add_file("/etc/readonly.conf", "x", writable=False)
        src = """
        int main() {
            if (access("/etc/readonly.conf", 0) != 0) { return 1; }
            if (access("/etc/readonly.conf", 2) == 0) { return 2; }
            return 0;
        }
        """
        assert run_main(src, os_model).exit_code == 0

    def test_is_directory(self):
        src = """
        int main() {
            if (!is_directory("/etc")) { return 1; }
            if (is_directory("/nope")) { return 2; }
            return 0;
        }
        """
        assert run_main(src).exit_code == 0


class TestNetworkBuiltins:
    def test_bind_valid_port(self):
        src = """
        int main() {
            int fd = socket(2, 1, 0);
            return bind(fd, 8080);
        }
        """
        assert run_main(src).exit_code == 0

    def test_bind_occupied_port_fails_with_eaddrinuse(self):
        os_model = EmulatedOS()
        os_model.occupy_port(3130)
        src = """
        int main() {
            int fd = socket(2, 1, 0);
            if (bind(fd, 3130) == 0) { return 1; }
            return errno == 98 ? 0 : 2;
        }
        """
        assert run_main(src, os_model).exit_code == 0

    def test_bind_out_of_range_port_fails(self):
        src = "int main() { return bind(socket(2,1,0), 70000) == 0 ? 1 : 0; }"
        assert run_main(src).exit_code == 0

    def test_inet_addr(self):
        src = """
        int main() {
            if (inet_addr("10.0.0.1") < 0) { return 1; }
            if (inet_addr("999.1.2.3") >= 0) { return 2; }
            if (inet_addr("not-an-ip") >= 0) { return 3; }
            return 0;
        }
        """
        assert run_main(src).exit_code == 0

    def test_getpwnam_users(self):
        src = """
        int main() {
            if (getpwnam("nobody") == NULL) { return 1; }
            if (getpwnam("no_such_user_xyz") != NULL) { return 2; }
            return 0;
        }
        """
        assert run_main(src).exit_code == 0

    def test_gethostbyname(self):
        src = """
        int main() {
            if (gethostbyname("localhost") == NULL) { return 1; }
            if (gethostbyname("unknown.example") != NULL) { return 2; }
            return 0;
        }
        """
        assert run_main(src).exit_code == 0


class TestLoggingAndHarness:
    def test_printf_goes_to_stdout_log(self):
        result = run_main('int main() { printf("listening on %d", 8080); return 0; }')
        assert any(r.stream == "stdout" and "listening on 8080" in r.text for r in result.logs)

    def test_fprintf_stderr(self):
        result = run_main(
            'int main() { fprintf(stderr, "bad value for %s", "timeout"); return 0; }'
        )
        assert any(r.stream == "stderr" and "bad value for timeout" in r.text for r in result.logs)

    def test_request_response_cycle(self):
        os_model = EmulatedOS()
        os_model.queue_requests(["GET /a", "GET /b"])
        src = """
        int main() {
            char *req = recv_request();
            while (req != NULL) {
                send_response(sprintf("OK %s", req));
                req = recv_request();
            }
            return 0;
        }
        """
        result = run_main(src, os_model)
        assert result.responses == ["OK GET /a", "OK GET /b"]

    def test_malloc_negative_returns_null(self):
        src = """
        int main() {
            char *p = malloc(0 - 5);
            return p == NULL;
        }
        """
        assert run_main(src).exit_code == 1

    def test_malloc_large_uses_sparse_arena(self):
        src = """
        int main() {
            char *buf = malloc(1073741824);
            buf[0] = 7;
            buf[1073741823] = 9;
            return buf[0] + buf[1073741823];
        }
        """
        result = run_main(src)
        assert result.exit_code == 16

    def test_malloc_beyond_2g_returns_null_then_deref_crashes(self):
        src = """
        int main() {
            char *buf = malloc(4294967296);
            buf[0] = 1;
            return 0;
        }
        """
        result = run_main(src)
        assert result.status is ProcessStatus.CRASHED
        assert result.fault_signal == "SIGSEGV"

    def test_memset_null_crashes(self):
        result = run_main("int main() { memset(NULL, 0, 16); return 0; }")
        assert result.status is ProcessStatus.CRASHED
